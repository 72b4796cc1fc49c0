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
		workload string
		counters string
		control  bool   // -jobs > 0
		want     string // "" = accepted, else a substring of the error
	}{
		{"defaults", nil, "cnk", "fwq", "", false, ""},
		{"fwq fwk counters", []string{"kernel", "workload", "samples", "counters"}, "fwk", "fwq", "text", false, ""},
		{"linpack faults ras", []string{"kernel", "nodes", "workload", "faults", "ras"}, "cnk", "linpack", "", false, ""},
		{"ions allreduce", []string{"kernel", "nodes", "ions", "workload"}, "cnk", "allreduce", "", false, ""},
		{"linkfails ras", []string{"kernel", "nodes", "workload", "linkfails", "ras"}, "cnk", "allreduce", "", false, ""},
		{"noresilience with linkfails", []string{"linkfails", "noresilience"}, "cnk", "fwq", "", false, ""},
		{"machine trace sampled", []string{"kernel", "workload", "trace", "tracesample"}, "fwk", "fwq", "", false, ""},
		{"workload stream", []string{"workload"}, "cnk", "stream", "", false, ""},
		{"drain", []string{"kernel", "partitions", "nodes", "jobs", "workers"}, "cnk", "fwq", "", true, ""},
		{"drain traced", []string{"kernel", "partitions", "nodes", "jobs", "trace", "faults", "ions", "seed"}, "cnk", "fwq", "", true, ""},

		{"kernel linux", []string{"kernel"}, "linux", "fwq", "", false, "-kernel"},
		{"kernel upper case", []string{"kernel"}, "FWK", "fwq", "", false, "-kernel"},
		{"kernel empty", []string{"kernel"}, "", "fwq", "", true, "-kernel"},
		{"workload bogus", []string{"workload"}, "cnk", "bogus", "", false, "-workload"},
		{"workload ioffload", []string{"kernel", "workload"}, "fwk", "ioffload", "", false, "-workload"},
		{"counters csv", []string{"counters"}, "cnk", "fwq", "csv", false, "-counters"},
		{"workers without jobs", []string{"workers"}, "cnk", "fwq", "", false, "-workers"},
		{"partitions without jobs", []string{"partitions"}, "cnk", "fwq", "", false, "-partitions"},
		{"tracesample without trace", []string{"tracesample"}, "cnk", "fwq", "", false, "-tracesample"},
		{"noresilience without hard faults", []string{"faults", "noresilience"}, "cnk", "fwq", "", false, "-noresilience"},
		{"jobs tracesample", []string{"jobs", "trace", "tracesample"}, "cnk", "fwq", "", true, "-tracesample"},
		{"jobs workload", []string{"jobs", "workload"}, "cnk", "fwq", "", true, "-workload"},
		{"jobs samples", []string{"jobs", "samples"}, "cnk", "fwq", "", true, "-samples"},
		{"jobs counters", []string{"jobs", "counters"}, "cnk", "fwq", "text", true, "-counters"},
		{"jobs linkfails", []string{"jobs", "linkfails"}, "cnk", "fwq", "", true, "-linkfails"},
		{"jobs nodefails", []string{"jobs", "nodefails"}, "cnk", "fwq", "", true, "-nodefails"},
		{"jobs noresilience", []string{"jobs", "noresilience"}, "cnk", "fwq", "", true, "-noresilience"},
		{"jobs ras", []string{"jobs", "ras"}, "cnk", "fwq", "", true, "-ras"},
	}
	for _, c := range cases {
		set := map[string]bool{}
		for _, name := range c.set {
			set[name] = true
		}
		err := checkFlags(set, c.kernel, c.workload, c.counters, c.control)
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
