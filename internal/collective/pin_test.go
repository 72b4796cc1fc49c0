package collective

// Tree-receive pin: one ION endpoint serves two compute nodes. The ION
// takes requests with Recv (any tag) and answers each after a fixed
// delay; compute node 0 waits for its replies with RecvTag and with
// RecvTagTimeout met before its deadline, expiring, and with sim.Forever,
// while compute node 1 waits with RecvTag. Every return's cycle, tag,
// sender and ok, and the run's event count and end cycle, are checked
// against rows generated before the three receives shared one wait. The
// event count shows that a sim.Forever wait schedules no timer.

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"bgcnk/internal/sim"
)

func TestPinnedTreeReceives(t *testing.T) {
	eng := sim.NewEngine()
	tr := NewTree(eng, DefaultConfig(), []int{0, 1})
	var rows []string
	row := func(who string, c *sim.Coro, m Message, ok bool) {
		rows = append(rows, fmt.Sprintf("%s at=%d tag=%d from=%d ok=%v", who, c.Now(), m.Tag, m.From, ok))
	}
	// replyDelay is how long the ION takes to answer each tag; tag 3's
	// answer comes after compute node 0 has stopped waiting for it.
	replyDelay := map[uint32]sim.Cycles{1: 300, 2: 2_000, 3: 9_000, 4: 4_000, 7: 500}
	eng.Go("ion", func(c *sim.Coro) {
		for i := 0; i < 6; i++ {
			m := tr.ION().Recv(c)
			row("ion recv", c, m, true)
			eng.After(replyDelay[m.Tag], func() { tr.ION().Send(m.From, m.Tag, []byte("reply")) })
		}
	})
	eng.Go("cn0", func(c *sim.Coro) {
		ep := tr.CN(0)
		ep.Send(-1, 1, []byte("open"))
		row("cn0 recvtag 1", c, ep.RecvTag(c, 1), true)
		ep.Send(-1, 2, []byte("write"))
		m, ok := ep.RecvTagTimeout(c, 2, 10_000)
		row("cn0 timeout 2 met", c, m, ok)
		ep.Send(-1, 3, []byte("read"))
		m, ok = ep.RecvTagTimeout(c, 3, 1_500)
		row("cn0 timeout 3 expired", c, m, ok)
		ep.Send(-1, 4, []byte("close"))
		m, ok = ep.RecvTagTimeout(c, 4, sim.Forever)
		row("cn0 timeout 4 forever", c, m, ok)
		rows = append(rows, fmt.Sprintf("cn0 pending=%d", ep.Pending()))
	})
	eng.Go("cn1", func(c *sim.Coro) {
		ep := tr.CN(1)
		c.Sleep(700)
		ep.Send(-1, 7, []byte("stat"))
		row("cn1 recvtag 7", c, ep.RecvTag(c, 7), true)
		ep.Send(-1, 8, make([]byte, 600))
	})
	events := eng.RunUntilIdle()
	rows = append(rows, fmt.Sprintf("events=%d end=%d cn0 pending=%d ion pending=%d",
		events, eng.Now(), tr.CN(0).Pending(), tr.ION().Pending()))
	if !slices.Equal(rows, pinnedTreeRows) {
		var b strings.Builder
		for _, r := range rows {
			fmt.Fprintf(&b, "\t%q,\n", r)
		}
		t.Errorf("tree receive rows differ from the pinned ones; got:\n%s", b.String())
	}
}

var pinnedTreeRows = []string{
	"ion recv at=1149 tag=1 from=0 ok=true",
	"ion recv at=1849 tag=7 from=1 ok=true",
	"cn0 recvtag 1 at=2599 tag=1 from=-1 ok=true",
	"cn1 recvtag 7 at=3499 tag=7 from=-1 ok=true",
	"ion recv at=3749 tag=2 from=0 ok=true",
	"ion recv at=5324 tag=8 from=1 ok=true",
	"cn0 timeout 2 met at=6899 tag=2 from=-1 ok=true",
	"ion recv at=8048 tag=3 from=0 ok=true",
	"cn0 timeout 3 expired at=8399 tag=0 from=0 ok=false",
	"ion recv at=9549 tag=4 from=0 ok=true",
	"cn0 timeout 4 forever at=14699 tag=4 from=-1 ok=true",
	"cn0 pending=0",
	"events=34 end=18198 cn0 pending=1 ion pending=0",
}
