package cnk

import (
	"fmt"

	"bgcnk/internal/barrier"
	"bgcnk/internal/sim"
)

// resetMagic is the Boot SRAM rendezvous stamp written by
// PrepareReproducibleReset and checked on restart.
const resetMagic = "CNK-REPRO-RESET"

// ResetError reports a reproducible-restart protocol violation: the chip
// was not taken through the Section III reset sequence before the restart
// was attempted.
type ResetError struct {
	Chip   int
	Reason string
}

func (e *ResetError) Error() string {
	return fmt.Sprintf("cnk: chip %d cannot restart reproducibly: %s", e.Chip, e.Reason)
}

// PrepareReproducibleReset executes the paper's Section III protocol:
// "CNK prepares for full reset by performing a barrier over all cores,
// rendezvousing all cores in the Boot SRAM, flushing all levels of cache
// to DDR, placing the DDR in self-refresh, and finally toggling reset to
// all functional units." After this returns, the chip has been reset with
// DDR contents intact; call RestartReproducible (typically via a fresh
// Kernel on the same chip) to come back up.
//
// The coroutine c stands in for the core executing the kernel's reset
// low-core.
func (k *Kernel) PrepareReproducibleReset(c *sim.Coro) {
	k.trace(c.Now(), "reset: barrier over all cores")
	c.Sleep(sim.Cycles(200 * len(k.Chip.Cores))) // core rendezvous
	k.trace(c.Now(), "reset: cores rendezvoused in Boot SRAM")
	copy(k.Chip.BootSRAM[:], resetMagic)
	k.Chip.Cache.FlushAll()
	c.Sleep(3000) // cache flush to DDR
	k.trace(c.Now(), "reset: caches flushed to DDR")
	k.Chip.Mem.EnterSelfRefresh()
	k.trace(c.Now(), "reset: DDR in self-refresh")
	k.Chip.Reset()
	k.Chip.Cache.ResetRefreshPhase(c.Now())
	k.trace(c.Now(), "reset: toggled reset to all functional units")
	k.booted = false
}

// RestartReproducible is the boot path after a reproducible reset: "Upon
// boot, CNK checks if it has been restarted in reproducible mode, and if
// so, rather than interacting with the service node, initializes all
// functional units on the chip and takes the DDR out of self-refresh."
func (k *Kernel) RestartReproducible() error {
	if string(k.Chip.BootSRAM[:len(resetMagic)]) != resetMagic {
		return &ResetError{Chip: k.Chip.ID, Reason: "Boot SRAM magic missing (reset protocol skipped)"}
	}
	if !k.Chip.Mem.InSelfRefresh() {
		return &ResetError{Chip: k.Chip.ID, Reason: "DDR not in self-refresh; memory contents did not survive the reset"}
	}
	k.cfg.Reproducible = true
	if err := k.Boot(); err != nil {
		return err
	}
	k.Chip.Mem.ExitSelfRefresh()
	k.trace(k.Eng.Now(), "restart: DDR out of self-refresh, reproducible run")
	return nil
}

// CoordinatedReset performs the multichip variant over the global barrier
// network: all participating kernels rendezvous so that every chip resets
// on the same cycle relative to the others, and the barrier arbiters are
// left in a consistent state (paper Section III: this allowed "one chip to
// initiate a packet transfer on exactly the same cycle relative to the
// other chip"). id is this kernel's participant slot.
func (k *Kernel) CoordinatedReset(c *sim.Coro, bnet *barrier.Network, id int) {
	k.trace(c.Now(), "reset: entering global barrier for coordinated reboot")
	bnet.Enter(c, id)
	// Leave the barrier network active and configured but with clean
	// arbiter state; participant 0 performs the (idempotent) cleanup.
	if id == 0 {
		bnet.ResetArbiters()
	}
	k.PrepareReproducibleReset(c)
}
