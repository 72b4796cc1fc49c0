package loader

import (
	"testing"
	"testing/quick"

	"bgcnk/internal/ciod"
	"bgcnk/internal/cnk"
	"bgcnk/internal/fs"
	"bgcnk/internal/hw"
	"bgcnk/internal/kernel"
	"bgcnk/internal/sim"
)

func testImage(name string, needed ...string) *Image {
	return &Image{
		Name:   name,
		Text:   append([]byte("CODE:"+name), make([]byte, 2048)...),
		Data:   []byte("DATA"),
		BSS:    512,
		Needed: needed,
		Symbols: []Sym{
			{Name: name + "_init", Offset: 0, Cost: 1000},
			{Name: name + "_work", Offset: 64, Cost: 25_000},
		},
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	im := testImage("libfoo.so", "libm.so", "libc.so")
	got, err := Unmarshal(im.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != im.Name || string(got.Text) != string(im.Text) ||
		string(got.Data) != string(im.Data) || got.BSS != im.BSS {
		t.Fatal("round trip lost fields")
	}
	if len(got.Needed) != 2 || got.Needed[0] != "libm.so" {
		t.Fatalf("needed: %v", got.Needed)
	}
	if len(got.Symbols) != 2 || got.Symbols[1].Cost != 25_000 {
		t.Fatalf("symbols: %+v", got.Symbols)
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	if _, err := Unmarshal([]byte("ELF?")); err == nil {
		t.Fatal("bad magic accepted")
	}
	im := testImage("x")
	b := im.Marshal()
	if _, err := Unmarshal(b[:len(b)-5]); err == nil {
		t.Fatal("truncated image accepted")
	}
}

func TestMarshalPropertyRoundTrip(t *testing.T) {
	f := func(name string, text, data []byte, bss uint16) bool {
		im := &Image{Name: name, Text: text, Data: data, BSS: uint64(bss)}
		got, err := Unmarshal(im.Marshal())
		if err != nil {
			return false
		}
		return got.Name == name && string(got.Text) == string(text) &&
			string(got.Data) == string(data) && got.BSS == uint64(bss)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// withCNK runs fn inside a CNK job with the given libraries installed on
// the I/O node's filesystem.
func withCNK(t *testing.T, libs []*Image, fn func(ctx kernel.Context)) {
	t.Helper()
	eng := sim.NewEngine()
	ionFS := fs.New()
	ionFS.MustMkdirAll("/lib")
	for _, im := range libs {
		if errno := ionFS.WriteFile("/lib/"+im.Name, im.Marshal(), 0755, fs.Root); errno != kernel.OK {
			t.Fatal(errno)
		}
	}
	k := cnk.New(eng, hw.NewChip(hw.ChipConfig{ID: 0}), cnk.Config{IO: ciod.NewLoopback(eng, ionFS)})
	if err := k.Boot(); err != nil {
		t.Fatal(err)
	}
	job, err := k.Launch(kernel.JobSpec{Main: func(ctx kernel.Context, rank int) { fn(ctx) }})
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntilIdle()
	eng.Shutdown()
	if !job.Done() {
		t.Fatal("job stuck")
	}
}

func TestDlopenLoadsWholeLibraryEagerly(t *testing.T) {
	lib := testImage("libphys.so")
	withCNK(t, []*Image{lib}, func(ctx kernel.Context) {
		ld := NewLinker()
		ll, err := ld.Dlopen(ctx, "/lib/libphys.so")
		if err != nil {
			t.Error(err)
			return
		}
		if ld.BytesRead != uint64(len(lib.Marshal())) {
			t.Errorf("read %d bytes, want the whole file %d (eager load)", ld.BytesRead, len(lib.Marshal()))
		}
		if _, ok := ll.SymAddr("libphys.so_work"); !ok {
			t.Error("symbol missing after load")
		}
	})
}

func TestDlopenNeededClosure(t *testing.T) {
	libc := testImage("libc.so")
	libm := testImage("libm.so", "/lib/libc.so")
	app := testImage("libapp.so", "/lib/libm.so")
	withCNK(t, []*Image{libc, libm, app}, func(ctx kernel.Context) {
		ld := NewLinker()
		if _, err := ld.Dlopen(ctx, "/lib/libapp.so"); err != nil {
			t.Error(err)
			return
		}
		if n := len(ld.Loaded()); n != 3 {
			t.Errorf("loaded %d libs, want 3 (DT_NEEDED closure): %v", n, ld.Loaded())
		}
	})
}

func TestDlsymAndCall(t *testing.T) {
	lib := testImage("libcompute.so")
	withCNK(t, []*Image{lib}, func(ctx kernel.Context) {
		ld := NewLinker()
		if _, err := ld.Dlopen(ctx, "/lib/libcompute.so"); err != nil {
			t.Error(err)
			return
		}
		start := ctx.Now()
		if err := ld.Call(ctx, "libcompute.so_work"); err != nil {
			t.Error(err)
			return
		}
		if ctx.Now()-start < 25_000 {
			t.Error("call did not charge the function's cost")
		}
		if _, _, err := ld.Dlsym(ctx, "no_such_symbol"); err == nil {
			t.Error("dlsym of missing symbol must fail")
		}
	})
}

func TestDlopenIdempotent(t *testing.T) {
	lib := testImage("libonce.so")
	withCNK(t, []*Image{lib}, func(ctx kernel.Context) {
		ld := NewLinker()
		a, err := ld.Dlopen(ctx, "/lib/libonce.so")
		if err != nil {
			t.Error(err)
			return
		}
		b, _ := ld.Dlopen(ctx, "/lib/libonce.so")
		if a != b || ld.LoadCalls != 1 {
			t.Error("second dlopen must reuse the mapping")
		}
	})
}

func TestDlopenMissingLibrary(t *testing.T) {
	withCNK(t, nil, func(ctx kernel.Context) {
		ld := NewLinker()
		if _, err := ld.Dlopen(ctx, "/lib/nope.so"); err == nil {
			t.Error("missing library must fail")
		}
	})
}

func TestLibraryTextIsWritableOnCNK(t *testing.T) {
	// Paper IV-B2: CNK does not honour page permissions on library text;
	// "applications could therefore unintentionally modify their text".
	lib := testImage("libscribble.so")
	withCNK(t, []*Image{lib}, func(ctx kernel.Context) {
		ld := NewLinker()
		ll, err := ld.Dlopen(ctx, "/lib/libscribble.so")
		if err != nil {
			t.Error(err)
			return
		}
		va, _ := ll.SymAddr("libscribble.so_init")
		if errno := ctx.Store(va, []byte{0xDE, 0xAD}); errno != kernel.OK {
			t.Errorf("store to library text: %v (CNK must allow this)", errno)
		}
		buf := make([]byte, 2)
		ctx.Load(va, buf)
		if buf[0] != 0xDE {
			t.Error("text modification did not stick")
		}
	})
}
