package ctrlsys

import (
	"fmt"

	"bgcnk/internal/wire"
)

// Personality is the per-node boot record the control system delivers
// with the kernel image: who the node is, where it sits, and how its
// kernel should come up. On the real machine this is the BG personality
// structure written into each node's SRAM by the service node; here it is
// the unit of per-node traffic in the boot-protocol model and the wire
// format the FuzzPersonality harness attacks.
type Personality struct {
	Rank      int32  // node's rank within the partition
	Nodes     int32  // partition size
	X, Y, Z   int32  // torus coordinates
	Partition int32  // owning partition ID
	Base      int32  // partition's base midplane
	Block     string // control-system block name, e.g. "R00-M1"
	Kind      uint8  // kernel kind (machine.KernelKind)
	Seed      uint64 // kernel seed
	MemBytes  uint64 // DDR size
}

// Wire format: magic, version, fixed-width fields, length-prefixed block
// name. Decoders must accept exactly what Marshal produces and nothing
// else (no trailing bytes), so any accepted input re-marshals to itself.
const (
	personalityMagic   = 0x42475062 // "BGPb"
	personalityVersion = 1
	maxBlockName       = 256
)

// Marshal encodes the personality.
func (p *Personality) Marshal() []byte {
	var e wire.Encoder
	e.U32(personalityMagic)
	e.U8(personalityVersion)
	e.I32(p.Rank)
	e.I32(p.Nodes)
	e.I32(p.X)
	e.I32(p.Y)
	e.I32(p.Z)
	e.I32(p.Partition)
	e.I32(p.Base)
	e.Str(p.Block[:min(len(p.Block), maxBlockName)])
	e.U8(p.Kind)
	e.U64(p.Seed)
	e.U64(p.MemBytes)
	return e.Bytes()
}

// UnmarshalPersonality decodes one personality record, rejecting bad
// magic, unknown versions, oversized block names, truncation, and
// trailing garbage.
func UnmarshalPersonality(b []byte) (*Personality, error) {
	d := wire.NewDecoder("ctrlsys: personality", b)
	if m := d.U32(); d.Err() == nil && m != personalityMagic {
		return nil, fmt.Errorf("ctrlsys: bad personality magic %#x", m)
	}
	if v := d.U8(); d.Err() == nil && v != personalityVersion {
		return nil, fmt.Errorf("ctrlsys: unsupported personality version %d", v)
	}
	p := &Personality{
		Rank: d.I32(), Nodes: d.I32(), X: d.I32(), Y: d.I32(), Z: d.I32(),
		Partition: d.I32(), Base: d.I32(), Block: d.Str(),
		Kind: d.U8(), Seed: d.U64(), MemBytes: d.U64(),
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	if len(p.Block) > maxBlockName {
		return nil, fmt.Errorf("ctrlsys: personality block name of %d bytes (max %d)", len(p.Block), maxBlockName)
	}
	return p, nil
}

// personalityWireBytes is the marshalled size of a representative record;
// the boot model charges this much control-network traffic per node.
func personalityWireBytes() int {
	p := Personality{Block: "R00-M0", Seed: 1, MemBytes: 256 << 20}
	return len(p.Marshal())
}
