package router

import (
	"fmt"
	"math"
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
// not usable; call Normalize (or use Default) first. The parts the paper
// fixes are not parameters: every router has one injection channel (one
// VC), and with detection on (Timeout > 0) a Deadlock Buffer of "a single
// additional flit buffer" — one lane, or two under concurrent recovery.
type Config struct {
	// VCs is the number of virtual channels ("edge buffers") per physical
	// channel. The paper's evaluation uses 4.
	VCs int
	// BufferDepth is the per-VC input buffer depth in flits. The paper
	// selects 2 ("shallow buffers keep the routers simple").
	BufferDepth int
	// ReceptionChannels bounds how many flits per cycle a node can consume;
	// the paper uses one and names raising it as future work.
	ReceptionChannels int
	// Timeout is T_out: consecutive cycles a header must be blocked before
	// the router presumes deadlock (paper default 8). Zero is the one off
	// switch: no detection, no Token, no Deadlock Buffer, and with them no
	// recovery mode (useful to demonstrate that Disha routing without
	// recovery wedges).
	Timeout sim.Cycle
	// Alloc is the crossbar allocation policy.
	Alloc AllocPolicy
	// Recovery selects what happens to presumed-deadlocked packets.
	Recovery RecoveryMode
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
	// Deadlock Buffers per router routed ascend-then-descend over labels
	// drawn from the live links (core.LaneRows): lane 0 only climbs, lane 1
	// only descends and nothing goes back, so the lanes' buffer dependency
	// graph is acyclic. Requires FlitByFlit allocation.
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

// Default returns the paper's router configuration: 4 VCs of depth 2, one
// reception channel, T_out = 8 (so a single-flit Deadlock Buffer),
// flit-by-flit crossbar allocation.
func Default() Config {
	return Config{
		VCs:               4,
		BufferDepth:       2,
		ReceptionChannels: 1,
		Timeout:           8,
		Alloc:             FlitByFlit,
	}
}

// PaperConfig is Default with the recovery decision made, the one place it
// is: with recovery on, T_out is timeout (0 = the paper's 8) and mode
// selects the scheme; with recovery off, Timeout is 0 — no detection, no
// Deadlock Buffer — and the unused mode stays sequential. Callers set the
// remaining fields; Normalize fills the ones they leave zero.
func PaperConfig(recovery bool, timeout sim.Cycle, mode RecoveryMode) Config {
	c := Default()
	if !recovery {
		c.Timeout = 0
		return c
	}
	c.Recovery = mode
	if timeout != 0 {
		c.Timeout = timeout
	}
	return c
}

// The largest VC count, buffer depth and T_out Normalize accepts. State
// stores every per-slot value in the narrowest type its range allows (see its
// layout notes), and these are the ranges: a VC index is an int8 and a
// buffer count a uint8, and a deadlock timer is an int32 that saturates at
// math.MaxInt32, which must still exceed T_out.
const (
	MaxVCs         = math.MaxInt8
	MaxBufferDepth = math.MaxUint8
	MaxTimeout     = math.MaxInt32 - 1
)

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
	if c.ReceptionChannels == 0 {
		c.ReceptionChannels = d.ReceptionChannels
	}
	if c.VCs < 1 || c.VCs > MaxVCs {
		return fmt.Errorf("router: VCs %d outside [1,%d]", c.VCs, MaxVCs)
	}
	if c.BufferDepth < 1 || c.BufferDepth > MaxBufferDepth {
		return fmt.Errorf("router: buffer depth %d outside [1,%d]", c.BufferDepth, MaxBufferDepth)
	}
	if c.ReceptionChannels < 1 {
		return fmt.Errorf("router: reception channels %d < 1", c.ReceptionChannels)
	}
	if c.Timeout < 0 {
		return fmt.Errorf("router: negative timeout")
	}
	if c.Timeout > MaxTimeout {
		return fmt.Errorf("router: timeout %d > %d", c.Timeout, MaxTimeout)
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
	return nil
}
