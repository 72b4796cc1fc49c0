package torus

import (
	"testing"

	"bgcnk/internal/sim"
)

// BenchmarkSendPacket is an 8-byte eager ping-pong between the two nodes
// of a 2-node ring; one op is a round trip: two SendPackets, their
// deliveries and two RecvMatches.
func BenchmarkSendPacket(b *testing.B) {
	eng, x, y := twoNodeNet(b)
	payload := make([]byte, 8)
	anyPacket := func(Packet) bool { return true }
	rounds := 0
	eng.Go("ping", func(c *sim.Coro) {
		for {
			x.SendPacket(y.Coord(), 1, 0, payload)
			x.RecvMatch(c, anyPacket)
			rounds++
		}
	})
	eng.Go("pong", func(c *sim.Coro) {
		for {
			y.RecvMatch(c, anyPacket)
			y.SendPacket(x.Coord(), 1, 0, payload)
		}
	})
	b.ReportAllocs()
	for b.Loop() {
		for r := rounds; rounds == r; {
			eng.Step()
		}
	}
	eng.Shutdown()
}
