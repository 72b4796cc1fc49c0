package ckpt

import "testing"

// benchImage is a CNK-shaped image of a 16-node partition: four large
// static regions, four threads, a full counter block and two open files
// per node.
func benchImage() *Image {
	img := &Image{JobID: 1, Epoch: 2}
	for n := 0; n < 16; n++ {
		ns := NodeState{Node: int32(n)}
		for i, name := range []string{"text", "data", "heap", "stack"} {
			base := uint64(0x0100_0000) << i
			ns.Regions = append(ns.Regions, Region{VBase: base, Size: 1 << 20, Digest: RegionDigest(name, base, 1<<20)})
		}
		for t := uint32(1); t <= 4; t++ {
			ns.Threads = append(ns.Threads, RegState{TID: t, PC: 2, SP: 0x0d00_0000 - uint64(t)<<20})
		}
		for sl := range ns.Counters.Vals {
			for c := range ns.Counters.Vals[sl] {
				ns.Counters.Vals[sl][c] = uint64(n*1000 + sl*100 + c)
			}
		}
		ns.Files = []FileState{{FD: 0, Path: "/dev/console"}, {FD: 3, Offset: 4096, Flags: 1, Path: "/gpfs/out.dat"}}
		img.Nodes = append(img.Nodes, ns)
	}
	return img
}

func BenchmarkImageMarshal(b *testing.B) {
	img := benchImage()
	b.ReportAllocs()
	for b.Loop() {
		img.Marshal()
	}
}

func BenchmarkImageUnmarshal(b *testing.B) {
	wire := benchImage().Marshal()
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Unmarshal(wire); err != nil {
			b.Fatal(err)
		}
	}
}
