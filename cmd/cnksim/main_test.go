package main

import (
	"strings"
	"testing"
)

// TestCheckFlags pins which command lines cnksim refuses: each bad case
// must name the offending flag, and the invocations the README and the
// package comment document must pass.
func TestCheckFlags(t *testing.T) {
	cases := []struct {
		name     string
		set      []string // flags given on the command line
		kernel   string
		counters string
		control  bool   // -jobs > 0
		want     string // "" = accepted, else a substring of the error
	}{
		{"defaults", nil, "cnk", "", false, ""},
		{"fwq fwk counters", []string{"kernel", "workload", "samples", "counters"}, "fwk", "text", false, ""},
		{"linpack faults ras", []string{"kernel", "nodes", "workload", "faults", "ras"}, "cnk", "", false, ""},
		{"ions allreduce", []string{"kernel", "nodes", "ions", "workload"}, "cnk", "", false, ""},
		{"linkfails ras", []string{"kernel", "nodes", "workload", "linkfails", "ras"}, "cnk", "", false, ""},
		{"noresilience with linkfails", []string{"linkfails", "noresilience"}, "cnk", "", false, ""},
		{"machine trace sampled", []string{"kernel", "workload", "trace", "tracesample"}, "fwk", "", false, ""},
		{"drain", []string{"kernel", "partitions", "nodes", "jobs", "workers"}, "cnk", "", true, ""},
		{"drain traced", []string{"kernel", "partitions", "nodes", "jobs", "trace", "faults", "ions", "seed"}, "cnk", "", true, ""},

		{"kernel linux", []string{"kernel"}, "linux", "", false, "-kernel"},
		{"kernel upper case", []string{"kernel"}, "FWK", "", false, "-kernel"},
		{"kernel empty", []string{"kernel"}, "", "", true, "-kernel"},
		{"counters csv", []string{"counters"}, "cnk", "csv", false, "-counters"},
		{"workers without jobs", []string{"workers"}, "cnk", "", false, "-workers"},
		{"partitions without jobs", []string{"partitions"}, "cnk", "", false, "-partitions"},
		{"tracesample without trace", []string{"tracesample"}, "cnk", "", false, "-tracesample"},
		{"noresilience without hard faults", []string{"faults", "noresilience"}, "cnk", "", false, "-noresilience"},
		{"jobs tracesample", []string{"jobs", "trace", "tracesample"}, "cnk", "", true, "-tracesample"},
		{"jobs workload", []string{"jobs", "workload"}, "cnk", "", true, "-workload"},
		{"jobs samples", []string{"jobs", "samples"}, "cnk", "", true, "-samples"},
		{"jobs counters", []string{"jobs", "counters"}, "cnk", "text", true, "-counters"},
		{"jobs linkfails", []string{"jobs", "linkfails"}, "cnk", "", true, "-linkfails"},
		{"jobs nodefails", []string{"jobs", "nodefails"}, "cnk", "", true, "-nodefails"},
		{"jobs noresilience", []string{"jobs", "noresilience"}, "cnk", "", true, "-noresilience"},
		{"jobs ras", []string{"jobs", "ras"}, "cnk", "", true, "-ras"},
	}
	for _, c := range cases {
		set := map[string]bool{}
		for _, name := range c.set {
			set[name] = true
		}
		err := checkFlags(set, c.kernel, c.counters, c.control)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", c.name, err)
		case c.want != "" && err == nil:
			t.Errorf("%s: accepted, want an error naming %s", c.name, c.want)
		case c.want != "" && !strings.Contains(err.Error(), c.want):
			t.Errorf("%s: error %q does not name %s", c.name, err, c.want)
		}
	}
}
