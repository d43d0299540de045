// Package obs is the observability layer of the simulation stack: a typed,
// allocation-conscious event tracer with pluggable sinks (JSONL and Chrome
// trace_event, so a run opens directly in chrome://tracing or Perfetto), a
// registry of named counters and gauges (busy and blame time per cause,
// buffer utilization), and a virtual-time series sampler for internal state
// trajectories (write-buffer utilization u, LSB quota q, slow-block-queue
// depth, free-block counts). Latency percentiles are not kept here: the
// exact per-request collector of internal/metrics is their one store.
//
// Everything is nil-safe: a nil *Recorder (tracing disabled) turns every
// emission into a no-op with zero allocations, so instrumentation can stay
// unconditionally wired through the hot paths. The tracer only observes —
// it never advances the virtual clock — so runs are bit-identical with
// tracing on or off.
//
// The package depends only on internal/sim (for virtual time); the device
// model, FTLs, buffer and runner all thread a single *Recorder through
// their call graphs.
package obs

import "flexftl/internal/sim"

// Kind identifies the event type. The taxonomy covers the device model
// (per-op spans), the FTL layer (GC and block life cycle) and policy
// decisions; docs/OBSERVABILITY.md is the authoritative catalogue.
type Kind uint8

// Event kinds.
const (
	// KindNone is the zero Kind; it is never emitted.
	KindNone Kind = iota

	// Device spans (tracks: chip or channel).
	KindRead       // page sense on the chip array
	KindProgramLSB // LSB page program on the chip array
	KindProgramMSB // MSB page program on the chip array
	KindErase      // block erase
	KindXfer       // data transfer on the channel bus

	// FTL events (tracks: chip).
	KindGCCollect   // foreground victim collection (span)
	KindBGCStart    // background GC picked a new victim
	KindBGCResume   // background GC resumed an in-progress victim
	KindBGCFinish   // background GC erased and freed its victim
	KindBlockFast   // block opened as the active fast block
	KindBlockQueued // fast block filled, appended to the slow-block queue
	KindBlockFull   // slow block filled, moved to the full pool
	KindBackup      // parity/copy backup page program
	KindPad         // dummy pad program (rtfFTL return-to-fast padding)
	KindPolicy      // allocation-policy decision (LSB vs MSB)

	kindCount // sentinel
)

// Phase distinguishes how an event maps onto a timeline.
type Phase uint8

// Event phases.
const (
	PhaseSpan    Phase = iota // complete span [Start, Start+Dur)
	PhaseInstant              // point event at Start
)

// Domain names the track namespace an event belongs to: chip-array
// timelines, channel-bus timelines, and per-chip FTL decision timelines.
type Domain uint8

// Track domains.
const (
	DomainChip Domain = iota
	DomainChannel
	DomainFTL
	domainCount
)

// String returns the domain name used by the sinks.
func (d Domain) String() string {
	switch d {
	case DomainChip:
		return "chip"
	case DomainChannel:
		return "channel"
	case DomainFTL:
		return "ftl"
	}
	return "unknown"
}

// Event is one trace record. It is a fixed-size value (no pointers) so the
// ring buffer holds events inline and emission never allocates.
type Event struct {
	Kind  Kind
	Phase Phase
	Track int32    // chip or channel index within the kind's domain
	Start sim.Time // virtual start time (µs)
	Dur   sim.Time // span duration; 0 for instants
	A, B  int64    // kind-specific arguments (see kindInfo)
}

// kindInfo carries the per-kind metadata the sinks render: event name,
// track domain and the labels of the A/B arguments.
var kindInfo = [kindCount]struct {
	name   string
	domain Domain
	a, b   string
}{
	KindNone:        {"none", DomainChip, "a", "b"},
	KindRead:        {"read", DomainChip, "block", "wl"},
	KindProgramLSB:  {"program_lsb", DomainChip, "block", "wl"},
	KindProgramMSB:  {"program_msb", DomainChip, "block", "wl"},
	KindErase:       {"erase", DomainChip, "block", "erase_count"},
	KindXfer:        {"bus_xfer", DomainChannel, "chip", "block"},
	KindGCCollect:   {"gc_foreground", DomainFTL, "victim", "copies"},
	KindBGCStart:    {"bgc_start", DomainFTL, "victim", "free_blocks"},
	KindBGCResume:   {"bgc_resume", DomainFTL, "victim", "next_page"},
	KindBGCFinish:   {"bgc_finish", DomainFTL, "victim", "free_blocks"},
	KindBlockFast:   {"block_fast_open", DomainFTL, "block", "free_blocks"},
	KindBlockQueued: {"block_queued_slow", DomainFTL, "block", "queue_depth"},
	KindBlockFull:   {"block_full", DomainFTL, "block", "queue_depth"},
	KindBackup:      {"backup_write", DomainFTL, "block", "backup_block"},
	KindPad:         {"pad_write", DomainFTL, "block", "wl"},
	KindPolicy:      {"policy", DomainFTL, "use_lsb", "quota"},
}

// Name returns the event name used by the sinks.
func (k Kind) Name() string {
	if k >= kindCount {
		return "unknown"
	}
	return kindInfo[k].name
}

// TrackDomain returns the track namespace of the kind.
func (k Kind) TrackDomain() Domain {
	if k >= kindCount {
		return DomainChip
	}
	return kindInfo[k].domain
}

// ArgNames returns the labels of the A and B arguments.
func (k Kind) ArgNames() (a, b string) {
	if k >= kindCount {
		return "a", "b"
	}
	return kindInfo[k].a, kindInfo[k].b
}
