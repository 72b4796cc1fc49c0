package mem

import (
	"fmt"

	"bgcnk/internal/hw"
)

// PersistRegion is a named memory region that survives job boundaries
// (paper Section IV-D). The virtual address used by the first job is
// preserved for later jobs, so the region can hold linked-list-style
// pointer structures.
type PersistRegion struct {
	Name  string
	VA    hw.VAddr
	PA    hw.PAddr
	Size  uint64
	Owner uint32 // uid that created the region
}

// PersistRegistry lives on the node (not in any process) and maps names to
// persistent regions, in a manner similar to shm_open()/mmap().
type PersistRegistry struct {
	regions map[string]*PersistRegion
	nextVA  hw.VAddr
	physLo  hw.PAddr
	physHi  hw.PAddr
	physCur hw.PAddr
}

// NewPersistRegistry manages a physical window [physLo, physHi) dedicated
// to persistent memory, assigning virtual addresses downward from the top
// of the shared-memory area.
func NewPersistRegistry(physLo, physHi hw.PAddr) *PersistRegistry {
	return &PersistRegistry{
		regions: make(map[string]*PersistRegion),
		nextVA:  VShmBase + hw.VAddr(1<<28), // above the shm window
		physLo:  physLo,
		physHi:  physHi,
		physCur: physLo,
	}
}

// Open returns the region called name, creating it with the given size on
// first use. Reopening with a different size fails; reopening from a
// different uid fails (persistence assumes "the correct privileges").
// The boolean reports whether the region was created by this call.
func (p *PersistRegistry) Open(name string, size uint64, uid uint32) (*PersistRegion, bool, error) {
	if name == "" {
		return nil, false, fmt.Errorf("mem: persistent region needs a name")
	}
	if r, ok := p.regions[name]; ok {
		if r.Owner != uid {
			return nil, false, fmt.Errorf("mem: persistent region %q owned by uid %d", name, r.Owner)
		}
		if size != 0 && size != r.Size {
			return nil, false, fmt.Errorf("mem: persistent region %q has size %d, not %d", name, r.Size, size)
		}
		return r, false, nil
	}
	if size == 0 {
		return nil, false, fmt.Errorf("mem: persistent region %q does not exist", name)
	}
	size = hw.AlignUp(size, 4096)
	if uint64(p.physCur)+size > uint64(p.physHi) {
		return nil, false, fmt.Errorf("mem: persistent window exhausted")
	}
	r := &PersistRegion{Name: name, VA: p.nextVA, PA: p.physCur, Size: size, Owner: uid}
	p.regions[name] = r
	p.nextVA += hw.VAddr(hw.AlignUp(size, 1<<20))
	p.physCur += hw.PAddr(size)
	return r, true, nil
}

// Remove deletes a region (requires the owning uid).
func (p *PersistRegistry) Remove(name string, uid uint32) error {
	r, ok := p.regions[name]
	if !ok {
		return fmt.Errorf("mem: persistent region %q does not exist", name)
	}
	if r.Owner != uid {
		return fmt.Errorf("mem: persistent region %q owned by uid %d", name, r.Owner)
	}
	delete(p.regions, name)
	return nil
}
