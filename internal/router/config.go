package router

import (
	"fmt"
	"strings"

	"repro/internal/sim"
)

// AllocPolicy selects how router crossbar connections are allocated
// (paper Section 3.3).
type AllocPolicy int

const (
	// FlitByFlit reconfigures the crossbar every flit: input and output
	// ports are multiplexed among virtual channels each cycle. This is the
	// policy used for all of the paper's simulations.
	FlitByFlit AllocPolicy = iota
	// PacketByPacket holds a crossbar connection from header to tail;
	// neither input nor output ports are multiplexed. A Deadlock Buffer
	// packet needing a held output preempts it, the displaced connection is
	// remembered in the reconfiguration buffer and restored afterwards.
	PacketByPacket
)

// String names the allocation policy for configuration dumps.
func (a AllocPolicy) String() string {
	switch a {
	case FlitByFlit:
		return "flit-by-flit"
	case PacketByPacket:
		return "packet-by-packet"
	default:
		return fmt.Sprintf("AllocPolicy(%d)", int(a))
	}
}

// Config holds the router microarchitecture parameters. The zero value is
// not usable; call Normalize (or use Default) first.
type Config struct {
	// VCs is the number of virtual channels ("edge buffers") per physical
	// channel. The paper's evaluation uses 4.
	VCs int
	// BufferDepth is the per-VC input buffer depth in flits. The paper
	// selects 2 ("shallow buffers keep the routers simple").
	BufferDepth int
	// DeadlockBufferDepth is the central Deadlock Buffer's capacity in
	// flits; the paper devotes "a single additional flit buffer" (1).
	// Setting it to 0 disables recovery entirely (useful to demonstrate
	// that Disha routing without recovery wedges).
	DeadlockBufferDepth int
	// InjectionVCs is the number of virtual channels on the injection
	// input; all algorithms in the paper use one injection channel.
	InjectionVCs int
	// ReceptionChannels bounds how many flits per cycle a node can consume;
	// the paper uses one and names raising it as future work.
	ReceptionChannels int
	// Timeout is T_out: consecutive cycles a header must be blocked before
	// the router presumes deadlock (paper default 8). Zero disables
	// detection — and with it every recovery mode.
	Timeout sim.Cycle
	// Alloc is the crossbar allocation policy.
	Alloc AllocPolicy
	// Recovery selects what happens to presumed-deadlocked packets.
	Recovery RecoveryMode
	// AdaptiveTimeout makes T_out self-tuning, the paper's last named
	// future-work item ("T_out could be programmable to vary dynamically"):
	// each router doubles its effective time-out (up to 8x Timeout) when a
	// presumption proves false — the header moves normally after all — and
	// decays it slowly back toward Timeout. Fewer false detections at small
	// base time-outs, prompt detection when congestion clears.
	AdaptiveTimeout bool
}

// RecoveryMode selects the deadlock recovery scheme used once detection
// (Timeout > 0) presumes a packet deadlocked.
type RecoveryMode int

const (
	// RecoverySequential is the paper's scheme: the packet captures the
	// circulating Token and escapes through the single central Deadlock
	// Buffer lane, routed minimally (dimension order) to its destination.
	RecoverySequential RecoveryMode = iota
	// RecoveryConcurrent is token-free recovery (the future work the paper
	// points to via its Disha-CR citation): every presumed-deadlocked
	// packet may recover immediately. Deadlock freedom of the recovery lane
	// itself comes from structure instead of mutual exclusion — two
	// direction-partitioned Deadlock Buffers per router whose one next-hop
	// table (MonotoneLaneTable) only moves a packet forward along the
	// topology's recovery order, taking the furthest link that does not pass
	// its destination, so each lane's buffer dependency graph is acyclic.
	// Requires FlitByFlit allocation.
	RecoveryConcurrent
	// RecoveryAbortRetry is the Compressionless-Routing-style alternative
	// the paper argues against: presumed-deadlocked packets are killed —
	// every flit purged from the network, held channels released — and
	// retransmitted from the source. No Deadlock Buffer is needed, but
	// killed packets suffer increased latencies (paper Section 1).
	RecoveryAbortRetry
)

var recoveryModeNames = [...]string{"sequential", "concurrent", "abort-retry"}

// String names the recovery mode; ParseRecoveryMode reads the same table.
func (m RecoveryMode) String() string {
	if m >= 0 && int(m) < len(recoveryModeNames) {
		return recoveryModeNames[m]
	}
	return fmt.Sprintf("RecoveryMode(%d)", int(m))
}

// RecoveryModeNames lists the modes ParseRecoveryMode accepts.
func RecoveryModeNames() []string { return append([]string(nil), recoveryModeNames[:]...) }

// ParseRecoveryMode is the inverse of RecoveryMode.String.
func ParseRecoveryMode(s string) (RecoveryMode, error) {
	for i, name := range recoveryModeNames {
		if name == s {
			return RecoveryMode(i), nil
		}
	}
	return 0, fmt.Errorf("router: unknown recovery mode %q (want %s)", s, strings.Join(RecoveryModeNames(), ", "))
}

// Default returns the paper's router configuration: 4 VCs of depth 2, a
// single-flit Deadlock Buffer, one injection and one reception channel,
// T_out = 8, flit-by-flit crossbar allocation.
func Default() Config {
	return Config{
		VCs:                 4,
		BufferDepth:         2,
		DeadlockBufferDepth: 1,
		InjectionVCs:        1,
		ReceptionChannels:   1,
		Timeout:             8,
		Alloc:               FlitByFlit,
	}
}

// PaperConfig is Default with the recovery decision made, the one place it
// is: with recovery on, T_out is timeout (0 = the paper's 8), the single-flit
// Deadlock Buffer is present and mode selects the scheme; with recovery off
// there is no detection (Timeout 0), no Deadlock Buffer, and the unused mode
// stays sequential. Callers set the remaining fields; Normalize fills the
// ones they leave zero.
func PaperConfig(recovery bool, timeout sim.Cycle, mode RecoveryMode) Config {
	c := Default()
	if !recovery {
		c.Timeout, c.DeadlockBufferDepth = 0, 0
		return c
	}
	c.Recovery = mode
	if timeout != 0 {
		c.Timeout = timeout
	}
	return c
}

// Normalize validates the configuration and fills unset (zero) fields with
// defaults.
func (c *Config) Normalize() error {
	d := Default()
	if c.VCs == 0 {
		c.VCs = d.VCs
	}
	if c.BufferDepth == 0 {
		c.BufferDepth = d.BufferDepth
	}
	if c.InjectionVCs == 0 {
		c.InjectionVCs = d.InjectionVCs
	}
	if c.ReceptionChannels == 0 {
		c.ReceptionChannels = d.ReceptionChannels
	}
	if c.VCs < 1 {
		return fmt.Errorf("router: VCs %d < 1", c.VCs)
	}
	if c.BufferDepth < 1 {
		return fmt.Errorf("router: buffer depth %d < 1", c.BufferDepth)
	}
	if c.DeadlockBufferDepth < 0 {
		return fmt.Errorf("router: negative deadlock buffer depth")
	}
	if c.InjectionVCs < 1 {
		return fmt.Errorf("router: injection VCs %d < 1", c.InjectionVCs)
	}
	if c.ReceptionChannels < 1 {
		return fmt.Errorf("router: reception channels %d < 1", c.ReceptionChannels)
	}
	if c.Timeout < 0 {
		return fmt.Errorf("router: negative timeout")
	}
	if c.Alloc != FlitByFlit && c.Alloc != PacketByPacket {
		return fmt.Errorf("router: unknown allocation policy %d", c.Alloc)
	}
	switch c.Recovery {
	case RecoverySequential, RecoveryAbortRetry:
	case RecoveryConcurrent:
		if c.Alloc != FlitByFlit {
			return fmt.Errorf("router: concurrent recovery requires flit-by-flit allocation")
		}
	default:
		return fmt.Errorf("router: unknown recovery mode %d", c.Recovery)
	}
	if c.Timeout > 0 && c.Recovery != RecoveryAbortRetry && c.DeadlockBufferDepth == 0 {
		return fmt.Errorf("router: %s recovery requires a Deadlock Buffer (depth >= 1)", c.Recovery)
	}
	return nil
}
