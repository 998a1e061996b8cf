package xbar

import (
	"fmt"

	"snvmm/internal/device"
	"snvmm/internal/telemetry/trace"
)

// Per-pulse side-channel trace export. An attacker with physical access can
// put a current probe on the crossbar's supply rail and watch each SPE pulse
// go by; what they see — per-pulse duration and drawn energy — is exactly
// what Chen et al. ("Power-balanced Memristive Cryptographic Implementation
// Against Side Channel Attacks") analyse. The sink mirrors the telemetry
// idiom: a nil sink is the default and costs one pointer check on the
// ApplyPulse hot path; attaching a sink is a red-team operation, never part
// of the production data path.
//
// Two emission modes model the two drivers under study:
//
//   - TraceBalanced is the SPECU's hardened pulse driver: every pulse
//     occupies a fixed 100 ns slot regardless of its width class, and a
//     complementary dummy load tops the supply draw up to a constant
//     per-pulse energy envelope. The emitted trace is the constant
//     (slot, budget) pair — independent of key, data and PoE placement.
//   - TraceRaw is the deliberately leaky reference driver: the pulse
//     occupies exactly its library width (key-dependent — wider classes
//     take longer) and the energy is the solved sneak-voltage dissipation
//     over the polyomino (placement- and data-dependent). This is the
//     naive hardware the red-team distinguisher must flag.

// PulseTrace is one observed pulse on the supply rail.
type PulseTrace struct {
	// Seq is the pulse ordinal on this crossbar since the sink attached.
	Seq uint64
	// Duration is the time the driver occupied the pulse slot, seconds.
	Duration float64
	// Energy is the energy drawn from the supply during the slot, in
	// normalized units (volt² · second against a unit conductance).
	Energy float64
}

// PulseTraceSink receives one record per applied pulse. OnPulse is called
// synchronously from ApplyPulse under whatever serialization the crossbar's
// owner already provides; implementations must not call back into the
// crossbar.
type PulseTraceSink interface {
	OnPulse(PulseTrace)
}

// TraceMode selects which pulse driver's observable the sink sees.
type TraceMode int

const (
	// TraceBalanced models the hardened constant-slot, power-balanced
	// driver (the production SPECU).
	TraceBalanced TraceMode = iota
	// TraceRaw models a naive driver whose timing and supply draw follow
	// the physical pulse directly.
	TraceRaw
)

// PulseSlotSeconds is the fixed slot the balanced driver charges per pulse
// (Section 6.4's 100 ns per PoE).
const PulseSlotSeconds = 100e-9

var traceMetaPulse = &trace.SpanMeta{Subsystem: "xbar", Name: "pulse"}

// causalSink forwards each pulse record into a causal trace context as an
// instant event (A0 = pulse ordinal, A1 = slot duration in ns).
type causalSink struct{ tc trace.Context }

func (s causalSink) OnPulse(p PulseTrace) {
	s.tc.Event(traceMetaPulse, int64(p.Seq), int64(p.Duration*1e9))
}

// NewTraceSink adapts a causal trace context into a PulseTraceSink: every
// pulse lands on the context's lane as an instant event carrying the
// ordinal and slot duration. Like SetTraceSink itself this is a red-team
// harness tool, not a production path — with TraceRaw the emitted slot
// durations are the key-dependent physical widths, so such a trace must
// never leave an analysis sandbox. Under TraceBalanced the duration is the
// constant slot and the event stream is key-independent.
func NewTraceSink(tc trace.Context) PulseTraceSink {
	return causalSink{tc: tc}
}

// traceState is allocated once per crossbar when a sink attaches.
type traceState struct {
	sink PulseTraceSink
	mode TraceMode
	seq  uint64

	// Library pulse widths per polarity and width class, seconds.
	widthPos [device.NumWidths]float64
	widthNeg [device.NumWidths]float64

	// budget is the balanced driver's constant per-pulse energy envelope:
	// the worst-case raw draw the dummy load always tops the supply up to.
	budget float64
}

// SetTraceSink attaches a per-pulse trace sink in the given emission mode,
// or detaches it when sink is nil. Attachment follows the crossbar's usual
// external-serialization contract (it is not safe to race with ApplyPulse).
func (x *Crossbar) SetTraceSink(sink PulseTraceSink, mode TraceMode) error {
	if sink == nil {
		x.trace = nil
		return nil
	}
	ts := &traceState{sink: sink, mode: mode}
	p := x.Cfg.Device
	for w := 0; w < device.NumWidths; w++ {
		shift := float64(w+1) * float64(device.Levels) / float64(device.NumWidths)
		wp, err := p.WidthForShift(shift, device.PulseVoltage)
		if err != nil {
			return fmt.Errorf("xbar: trace width table: %w", err)
		}
		wn, err := p.WidthForShift(shift, -device.PulseVoltage)
		if err != nil {
			return fmt.Errorf("xbar: trace width table: %w", err)
		}
		ts.widthPos[w] = wp
		ts.widthNeg[w] = wn
	}
	// Worst-case envelope: the widest pulse driving the full drive voltage
	// across every cell of the array. Any raw draw is strictly below it.
	maxW := ts.widthPos[device.NumWidths-1]
	if ts.widthNeg[device.NumWidths-1] > maxW {
		maxW = ts.widthNeg[device.NumWidths-1]
	}
	v := 2 * x.Cfg.VDrive
	ts.budget = maxW * v * v * float64(x.Cfg.Cells())
	x.trace = ts
	return nil
}

// emitTrace builds and delivers one pulse record. Called from ApplyPulse
// only when a sink is attached; pc and acc are the calibration record and
// pre-pulse deviation sums of the pulse being applied.
func (x *Crossbar) emitTrace(pc *poeCal, acc []int64, width int, negative bool) {
	ts := x.trace
	rec := PulseTrace{Seq: ts.seq}
	ts.seq++
	switch ts.mode {
	case TraceRaw:
		// The pulse occupies its physical library width, and the supply
		// sees the polyomino's dissipation at the calibrated sneak
		// voltages (baseline + data-dependent deviation) for that long.
		w := ts.widthPos[width]
		if negative {
			w = ts.widthNeg[width]
		}
		var p float64
		for k := range pc.shape {
			v := pc.base[k] + float64(acc[k])*devInvScale
			p += v * v
		}
		rec.Duration = w
		rec.Energy = w * p
	default: // TraceBalanced
		rec.Duration = PulseSlotSeconds
		rec.Energy = ts.budget
	}
	ts.sink.OnPulse(rec)
}
