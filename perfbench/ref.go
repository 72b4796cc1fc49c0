package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
)

// The default seed is the one whose digests reference.json pins. The
// held-out seed is kept out of tuning: a change's gain must also hold
// there, where ops are checked only against the run's own first op.
const (
	defaultSeed = 1
	heldOutSeed = 7
)

// reference is the pinned model output: for each workload, the digest of
// every input variant at the default seed.
type reference struct {
	DefaultSeed uint64              `json:"default_seed"`
	HeldOutSeed uint64              `json:"held_out_seed"`
	Digests     map[string][]string `json:"digests"`
}

func loadReference(path string) (*reference, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read reference: %w", err)
	}
	var r reference
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("parse reference %s: %w", path, err)
	}
	if r.DefaultSeed != defaultSeed {
		return nil, fmt.Errorf("reference %s pins seed %d, the benchmark's default is %d; rerun with --regen",
			path, r.DefaultSeed, defaultSeed)
	}
	return &r, nil
}

// pinned returns the workload's digests, one per input variant.
func (r *reference) pinned(workload string, variants int) ([]uint64, error) {
	hexes := r.Digests[workload]
	if len(hexes) != variants {
		return nil, fmt.Errorf("reference pins %d digests for %s, the workload has %d inputs; rerun with --regen",
			len(hexes), workload, variants)
	}
	out := make([]uint64, len(hexes))
	for i, h := range hexes {
		v, err := strconv.ParseUint(h, 16, 64)
		if err != nil {
			return nil, fmt.Errorf("reference digest %s[%d]: %w", workload, i, err)
		}
		out[i] = v
	}
	return out, nil
}

// regenerate runs every input variant of every workload twice at the
// default seed and writes their digests to path. The two runs must agree:
// a reference is only pinned if the model is deterministic.
func regenerate(path string, report io.Writer) error {
	ref := reference{DefaultSeed: defaultSeed, HeldOutSeed: heldOutSeed, Digests: map[string][]string{}}
	for _, name := range workloadNames {
		w, err := setup(name, defaultSeed)
		if err != nil {
			return fmt.Errorf("%s: setup: %w", name, err)
		}
		for pass := 0; pass < 2; pass++ {
			for v := 0; v < w.variants(); v++ {
				out, err := w.op(v)
				if err == nil && out.failure != "" {
					err = fmt.Errorf("%s", out.failure)
				}
				if err != nil {
					w.close()
					return fmt.Errorf("%s input %d: %w", name, v, err)
				}
				hex := fmt.Sprintf("%016x", out.digest)
				if pass == 0 {
					ref.Digests[name] = append(ref.Digests[name], hex)
				} else if ref.Digests[name][v] != hex {
					w.close()
					return fmt.Errorf("%s input %d: digest %s on rerun, %s first", name, v, hex, ref.Digests[name][v])
				}
			}
		}
		w.close()
		fmt.Fprintf(report, "%s: pinned %d digests\n", name, len(ref.Digests[name]))
	}
	b, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
