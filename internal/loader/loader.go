// Package loader implements the BELF image format (the model's stand-in
// for ELF) and the dynamic linker of paper Section IV-B2: a ld.so-like
// loader that lives at a fixed virtual address distinct from the
// application's, needs only open/fstat/mmap(MAP_COPY)/close from the
// kernel, eagerly loads whole libraries (no demand paging of library
// pages), and deliberately does not honour page permissions on library
// text — so an application *can* scribble on its own code, the documented
// lightweight-philosophy consequence.
package loader

import (
	"encoding/binary"
	"fmt"
	"sort"

	"bgcnk/internal/hw"
	"bgcnk/internal/kernel"
	"bgcnk/internal/sim"
)

// Magic identifies a BELF image.
var Magic = [4]byte{'B', 'E', 'L', 'F'}

// Sym is one exported symbol: a name and an offset into the text section.
type Sym struct {
	Name   string
	Offset uint64
	// Cost is the modelled cycles one call of this function burns (our
	// stand-in for actual instructions).
	Cost uint64
}

// Image is a BELF executable or shared library.
type Image struct {
	Name    string
	Text    []byte   // code + rodata
	Data    []byte   // initialized data
	BSS     uint64   // zero-initialized size
	Needed  []string // dynamic dependencies (DT_NEEDED)
	Symbols []Sym
}

// Lookup finds a symbol.
func (im *Image) Lookup(name string) (Sym, bool) {
	for _, s := range im.Symbols {
		if s.Name == name {
			return s, true
		}
	}
	return Sym{}, false
}

// Marshal renders the image in wire/file format (big-endian).
func (im *Image) Marshal() []byte {
	var b []byte
	b = append(b, Magic[:]...)
	putStr := func(s string) {
		b = binary.BigEndian.AppendUint32(b, uint32(len(s)))
		b = append(b, s...)
	}
	putBytes := func(p []byte) {
		b = binary.BigEndian.AppendUint64(b, uint64(len(p)))
		b = append(b, p...)
	}
	putStr(im.Name)
	putBytes(im.Text)
	putBytes(im.Data)
	b = binary.BigEndian.AppendUint64(b, im.BSS)
	b = binary.BigEndian.AppendUint32(b, uint32(len(im.Needed)))
	for _, n := range im.Needed {
		putStr(n)
	}
	b = binary.BigEndian.AppendUint32(b, uint32(len(im.Symbols)))
	for _, s := range im.Symbols {
		putStr(s.Name)
		b = binary.BigEndian.AppendUint64(b, s.Offset)
		b = binary.BigEndian.AppendUint64(b, s.Cost)
	}
	return b
}

// Unmarshal parses a BELF image.
func Unmarshal(b []byte) (*Image, error) {
	if len(b) < 4 || b[0] != 'B' || b[1] != 'E' || b[2] != 'L' || b[3] != 'F' {
		return nil, fmt.Errorf("loader: bad magic")
	}
	b = b[4:]
	fail := fmt.Errorf("loader: truncated image")
	need := func(n int) ([]byte, bool) {
		if len(b) < n {
			return nil, false
		}
		v := b[:n]
		b = b[n:]
		return v, true
	}
	getStr := func() (string, bool) {
		lb, ok := need(4)
		if !ok {
			return "", false
		}
		sb, ok := need(int(binary.BigEndian.Uint32(lb)))
		return string(sb), ok
	}
	getBytes := func() ([]byte, bool) {
		lb, ok := need(8)
		if !ok {
			return nil, false
		}
		db, ok := need(int(binary.BigEndian.Uint64(lb)))
		return append([]byte(nil), db...), ok
	}
	im := &Image{}
	var ok bool
	if im.Name, ok = getStr(); !ok {
		return nil, fail
	}
	if im.Text, ok = getBytes(); !ok {
		return nil, fail
	}
	if im.Data, ok = getBytes(); !ok {
		return nil, fail
	}
	bb, ok := need(8)
	if !ok {
		return nil, fail
	}
	im.BSS = binary.BigEndian.Uint64(bb)
	nb, ok := need(4)
	if !ok {
		return nil, fail
	}
	for i := uint32(0); i < binary.BigEndian.Uint32(nb); i++ {
		s, ok := getStr()
		if !ok {
			return nil, fail
		}
		im.Needed = append(im.Needed, s)
	}
	sb, ok := need(4)
	if !ok {
		return nil, fail
	}
	for i := uint32(0); i < binary.BigEndian.Uint32(sb); i++ {
		var s Sym
		if s.Name, ok = getStr(); !ok {
			return nil, fail
		}
		ob, ok := need(8)
		if !ok {
			return nil, fail
		}
		s.Offset = binary.BigEndian.Uint64(ob)
		cb, ok := need(8)
		if !ok {
			return nil, fail
		}
		s.Cost = binary.BigEndian.Uint64(cb)
		im.Symbols = append(im.Symbols, s)
	}
	return im, nil
}

// LoadedLib is a library mapped into a process.
type LoadedLib struct {
	Image *Image
	Base  hw.VAddr // text base
	Data  hw.VAddr
}

// SymAddr resolves a symbol to its mapped virtual address.
func (ll *LoadedLib) SymAddr(name string) (hw.VAddr, bool) {
	s, ok := ll.Image.Lookup(name)
	if !ok {
		return 0, false
	}
	return ll.Base + hw.VAddr(s.Offset), true
}

// Linker is the ld.so model for one process. It is created by the process
// during startup (CNK statically loads ld.so at a fixed virtual address
// that differs from the application's initial addresses).
type Linker struct {
	libs   map[string]*LoadedLib
	bySyms map[string]*LoadedLib

	// Stats for the experiments: all library I/O happens at load time.
	LoadCalls uint64
	BytesRead uint64
}

// NewLinker initializes the dynamic linker.
func NewLinker() *Linker {
	return &Linker{libs: make(map[string]*LoadedLib), bySyms: make(map[string]*LoadedLib)}
}

// Dlopen loads the library at path (plus its DT_NEEDED closure) through
// the kernel's file and mmap interface: open, fstat for the size, one
// mmap(MAP_COPY) that pulls the ENTIRE file across the network at once
// (no lazy page faults afterwards — the noise is contained in this call),
// then close. Idempotent per path.
func (ld *Linker) Dlopen(ctx kernel.Context, path string) (*LoadedLib, error) {
	if lib, ok := ld.libs[path]; ok {
		return lib, nil
	}
	// Scratch strings go just below the break.
	brk, _ := ctx.Syscall(kernel.SysBrk, 0)
	ctx.Syscall(kernel.SysBrk, brk+4096)
	pathVA := hw.VAddr(brk)
	if errno := ctx.StoreCString(pathVA, path); errno != kernel.OK {
		return nil, fmt.Errorf("dlopen %s: %v", path, errno)
	}
	fd, errno := ctx.Syscall(kernel.SysOpen, uint64(pathVA), kernel.ORdonly, 0)
	if errno != kernel.OK {
		return nil, fmt.Errorf("dlopen %s: open: %v", path, errno)
	}
	defer ctx.Syscall(kernel.SysClose, fd)
	size, errno := ctx.Syscall(kernel.SysFstat, fd, 0)
	if errno != kernel.OK {
		return nil, fmt.Errorf("dlopen %s: fstat: %v", path, errno)
	}
	if size == 0 {
		return nil, fmt.Errorf("dlopen %s: empty library", path)
	}
	va, errno := ctx.Syscall(kernel.SysMmap, 0, size,
		kernel.ProtRead|kernel.ProtExec, kernel.MapPrivate|kernel.MapCopy, fd, 0)
	if errno != kernel.OK {
		return nil, fmt.Errorf("dlopen %s: mmap: %v", path, errno)
	}
	ld.LoadCalls++
	ld.BytesRead += size
	raw := make([]byte, size)
	if errno := ctx.Load(hw.VAddr(va), raw); errno != kernel.OK {
		return nil, fmt.Errorf("dlopen %s: read mapping: %v", path, errno)
	}
	im, err := Unmarshal(raw)
	if err != nil {
		return nil, fmt.Errorf("dlopen %s: %v", path, err)
	}
	lib := &LoadedLib{Image: im, Base: hw.VAddr(va), Data: hw.VAddr(va) + hw.VAddr(len(im.Text))}
	ld.libs[path] = lib
	for _, s := range im.Symbols {
		if _, dup := ld.bySyms[s.Name]; !dup {
			ld.bySyms[s.Name] = lib
		}
	}
	// Load the DT_NEEDED closure, breadth-first, deterministically.
	needed := append([]string(nil), im.Needed...)
	sort.Strings(needed)
	for _, dep := range needed {
		if _, err := ld.Dlopen(ctx, dep); err != nil {
			return nil, fmt.Errorf("dlopen %s: needed %s: %v", path, dep, err)
		}
	}
	return lib, nil
}

// Dlsym resolves name across all loaded libraries.
func (ld *Linker) Dlsym(ctx kernel.Context, name string) (hw.VAddr, *LoadedLib, error) {
	lib, ok := ld.bySyms[name]
	if !ok {
		return 0, nil, fmt.Errorf("dlsym: undefined symbol %q", name)
	}
	va, _ := lib.SymAddr(name)
	return va, lib, nil
}

// Call invokes a loaded function: it charges the symbol's modelled cost
// and touches its text (so the cache model sees instruction fetches).
func (ld *Linker) Call(ctx kernel.Context, name string) error {
	_, lib, err := ld.Dlsym(ctx, name)
	if err != nil {
		return err
	}
	s, _ := lib.Image.Lookup(name)
	va := lib.Base + hw.VAddr(s.Offset)
	span := uint32(64)
	if rem := uint64(len(lib.Image.Text)) - s.Offset; rem < 64 {
		span = uint32(rem)
	}
	if errno := ctx.Touch(va, span, false); errno != kernel.OK {
		return fmt.Errorf("call %s: text fetch: %v", name, errno)
	}
	ctx.Compute(sim.Cycles(s.Cost))
	return nil
}

// Loaded reports the libraries mapped so far.
func (ld *Linker) Loaded() []string {
	var ns []string
	for n := range ld.libs {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}
