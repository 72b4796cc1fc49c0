package barrier

// Rendezvous pin: one script drives the global barrier network and the
// collective network's combine route. Four participants meet for three
// rounds, arriving in reverse order; in a fourth round two of them wait
// when a node death releases them, and a third enters after it. Every
// entry's resume cycle, returned sum and dead-participant error, the
// run's event count and end cycle, the barrier's counters and each
// participant's CombineOp count are checked against rows generated
// before the two networks shared one rendezvous.

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"bgcnk/internal/sim"
	"bgcnk/internal/upc"
)

// rendezvousScript runs the pinned script on a 4-participant network
// reached through enter and markDead, and returns one row per entry plus
// the run's event count and end cycle.
func rendezvousScript(eng *sim.Engine, enter func(c *sim.Coro, id int, v float64) (float64, error), markDead func(id int)) []string {
	const n, rounds = 4, 3
	const deathAt = sim.Cycles(20_000)
	var rows []string
	entry := func(c *sim.Coro, id, round int) {
		sum, err := enter(c, id, float64(10*round+id))
		dead := err != nil && strings.Contains(err.Error(), "participant dead")
		if err != nil && !dead {
			panic(err)
		}
		rows = append(rows, fmt.Sprintf("round %d p%d resume=%d sum=%g dead=%v", round, id, c.Now(), sum, dead))
	}
	for i := 0; i < n; i++ {
		eng.Go("p", func(c *sim.Coro) {
			for r := 0; r < rounds; r++ {
				c.Sleep(sim.Cycles(100 * (n - i)))
				entry(c, i, r)
			}
			switch i {
			case 0, 2: // wait in the fourth round until participant 3 dies
				c.Sleep(sim.Cycles(100 * (n - i)))
				entry(c, i, rounds)
			case 1: // enter after the death
				c.Sleep(deathAt + 100 - c.Now())
				entry(c, i, rounds)
			}
		})
	}
	eng.At(deathAt, func() { markDead(3) })
	events := eng.RunUntilIdle()
	return append(rows, fmt.Sprintf("events=%d end=%d", events, eng.Now()))
}

func checkPinnedRows(t *testing.T, name string, got, want []string) {
	t.Helper()
	if slices.Equal(got, want) {
		return
	}
	var b strings.Builder
	for _, r := range got {
		fmt.Fprintf(&b, "\t\t%q,\n", r)
	}
	t.Errorf("%s rows differ from the pinned ones; got:\n%s", name, b.String())
}

func TestPinnedRendezvous(t *testing.T) {
	eng := sim.NewEngine()
	b := New(eng, 4)
	got := rendezvousScript(eng, func(c *sim.Coro, id int, _ float64) (float64, error) {
		return 0, b.EnterErr(c, id)
	}, b.MarkDead)
	got = append(got, fmt.Sprintf("barriers=%d arbiter=%d waiting=%d", b.Barriers, b.ArbiterState(), b.Waiting()))
	checkPinnedRows(t, "barrier", got, pinnedBarrierRows)

	eng = sim.NewEngine()
	cb := NewCombine(eng, 4)
	sets := make([]*upc.Set, 4)
	for i := range sets {
		sets[i] = new(upc.Set)
		cb.AttachUPC(i, sets[i])
	}
	got = rendezvousScript(eng, cb.AllreduceErr, cb.MarkDead)
	for i, u := range sets {
		got = append(got, fmt.Sprintf("p%d combine_ops=%d", i, u.Get(upc.ChipScope, upc.CombineOp)))
	}
	checkPinnedRows(t, "combine", got, pinnedCombineRows)
}

var pinnedBarrierRows = []string{
	"round 0 p0 resume=1505 sum=0 dead=false",
	"round 0 p1 resume=1505 sum=0 dead=false",
	"round 0 p2 resume=1505 sum=0 dead=false",
	"round 0 p3 resume=1505 sum=0 dead=false",
	"round 1 p0 resume=3010 sum=0 dead=false",
	"round 1 p1 resume=3010 sum=0 dead=false",
	"round 1 p2 resume=3010 sum=0 dead=false",
	"round 1 p3 resume=3010 sum=0 dead=false",
	"round 2 p0 resume=4515 sum=0 dead=false",
	"round 2 p1 resume=4515 sum=0 dead=false",
	"round 2 p2 resume=4515 sum=0 dead=false",
	"round 2 p3 resume=4515 sum=0 dead=false",
	"round 3 p0 resume=20000 sum=0 dead=true",
	"round 3 p2 resume=20000 sum=0 dead=true",
	"round 3 p1 resume=20100 sum=0 dead=true",
	"events=37 end=20100",
	"barriers=3 arbiter=3 waiting=0",
}

var pinnedCombineRows = []string{
	"round 0 p0 resume=2525 sum=6 dead=false",
	"round 0 p1 resume=2525 sum=6 dead=false",
	"round 0 p2 resume=2525 sum=6 dead=false",
	"round 0 p3 resume=2525 sum=6 dead=false",
	"round 1 p0 resume=5050 sum=46 dead=false",
	"round 1 p1 resume=5050 sum=46 dead=false",
	"round 1 p2 resume=5050 sum=46 dead=false",
	"round 1 p3 resume=5050 sum=46 dead=false",
	"round 2 p0 resume=7575 sum=86 dead=false",
	"round 2 p1 resume=7575 sum=86 dead=false",
	"round 2 p2 resume=7575 sum=86 dead=false",
	"round 2 p3 resume=7575 sum=86 dead=false",
	"round 3 p0 resume=20000 sum=0 dead=true",
	"round 3 p2 resume=20000 sum=0 dead=true",
	"round 3 p1 resume=20100 sum=0 dead=true",
	"events=37 end=20100",
	"p0 combine_ops=4",
	"p1 combine_ops=3",
	"p2 combine_ops=4",
	"p3 combine_ops=3",
}
