package core

import (
	"fmt"

	"snvmm/internal/telemetry"
	"snvmm/internal/telemetry/slo"
	"snvmm/internal/telemetry/trace"
)

// SPECU instrumentation. EnableTelemetry resolves every instrument once
// into a specuTel struct published through an atomic pointer; the data
// path then pays one load-and-branch when telemetry is off, and padded
// atomic updates plus two clock reads per operation when it is on. Only
// aggregates are exported — per-shard distributions, totals, gauges.
// Nothing is keyed by block address or key material (see DESIGN.md
// "Telemetry & introspection" for the side-channel rationale).

// Span/event call sites, interned once.
var (
	metaPowerOn        = &telemetry.EventMeta{Subsystem: "specu", Name: "power_on"}
	metaPowerOff       = &telemetry.EventMeta{Subsystem: "specu", Name: "power_off"}
	metaEncryptPending = &telemetry.EventMeta{Subsystem: "specu", Name: "encrypt_pending"}
)

// Causal-trace call sites, interned once. The hierarchy a traced batch
// produces: {read,write,crypt}_batch root -> shard_run (one per touched
// shard, on the shard's lane) -> {read,write,crypt} op span ->
// {encrypt,decrypt} block crypt -> xbar.pulse_train (one per crossbar).
var (
	traceMetaReadBatch  = &trace.SpanMeta{Subsystem: "specu", Name: "read_batch"}
	traceMetaWriteBatch = &trace.SpanMeta{Subsystem: "specu", Name: "write_batch"}
	traceMetaCryptBatch = &trace.SpanMeta{Subsystem: "specu", Name: "crypt_batch"}
	traceMetaShardRun   = &trace.SpanMeta{Subsystem: "specu", Name: "shard_run"}
	traceMetaRead       = &trace.SpanMeta{Subsystem: "specu", Name: "read"}
	traceMetaWrite      = &trace.SpanMeta{Subsystem: "specu", Name: "write"}
	traceMetaCrypt      = &trace.SpanMeta{Subsystem: "specu", Name: "crypt"}
	traceMetaEncrypt    = &trace.SpanMeta{Subsystem: "specu", Name: "encrypt"}
	traceMetaDecrypt    = &trace.SpanMeta{Subsystem: "specu", Name: "decrypt"}
)

// specuTel is the resolved instrument set of one SPECU.
type specuTel struct {
	reg *telemetry.Registry

	// Per-shard latency distributions of the four data-path operations.
	read    [NumShards]*telemetry.Histogram
	write   [NumShards]*telemetry.Histogram
	encrypt [NumShards]*telemetry.Histogram
	decrypt [NumShards]*telemetry.Histogram

	reads  *telemetry.Counter
	writes *telemetry.Counter
	steals *telemetry.Counter

	// Block crypts that derived their pulse schedules against those that
	// reused the ones derived earlier in the same key epoch.
	schedDerived *telemetry.Counter
	schedReused  *telemetry.Counter
	// Block encrypts that restored the ciphertext their block's last
	// decrypt saved instead of pulsing (Block.cryptLoaded).
	encryptRestored *telemetry.Counter

	plaintext *telemetry.Gauge // blocks currently resident as plaintext
	blocks    *telemetry.Gauge // blocks ever fabricated and resident

	scope *telemetry.Scope // key-lifecycle barrier spans

	// SLO windows per op class (EnableSLO); nil windows no-op, so the
	// observe path attaches unconditionally.
	sloRead    *slo.Window
	sloWrite   *slo.Window
	sloEncrypt *slo.Window
	sloDecrypt *slo.Window
}

// attachSLO resolves the engine's op-class windows into the instrument
// set. A nil engine detaches (Window returns nil, a no-op sink).
func (t *specuTel) attachSLO(e *slo.Engine) {
	t.sloRead = e.Window("read")
	t.sloWrite = e.Window("write")
	t.sloEncrypt = e.Window("encrypt")
	t.sloDecrypt = e.Window("decrypt")
}

// span opens a barrier span; safe on a nil receiver (disabled telemetry).
func (t *specuTel) span(meta *telemetry.EventMeta) telemetry.Span {
	if t == nil {
		return telemetry.Span{}
	}
	return t.scope.Start(meta)
}

// now reads the registry clock; 0 on a nil receiver (disabled telemetry).
func (t *specuTel) now() int64 {
	if t == nil {
		return 0
	}
	return t.reg.Now()
}

// observeRead records one completed data-path read against shard si. Both
// the synchronous Read wrapper and coalesced batch runs report through it,
// so per-shard latency distributions stay comparable across dispatch modes.
func (t *specuTel) observeRead(si int, start int64) {
	if t == nil {
		return
	}
	elapsed := t.reg.Now() - start
	t.read[si].ObserveNs(elapsed)
	t.sloRead.Observe(elapsed)
	t.reads.Inc()
}

// observeWrite records one completed data-path write against shard si.
func (t *specuTel) observeWrite(si int, start int64) {
	if t == nil {
		return
	}
	elapsed := t.reg.Now() - start
	t.write[si].ObserveNs(elapsed)
	t.sloWrite.Observe(elapsed)
	t.writes.Inc()
}

// EnableTelemetry attaches the SPECU to a registry. All instruments are
// created under the "specu." prefix; per-shard histograms are named
// specu.shardNN.{read,write,encrypt,decrypt}. Enabling is idempotent in
// effect (instruments are shared by name) and safe to race with data
// operations; passing nil detaches the instrumentation. The
// specu.pool.workers gauge reports the worker count of a budget already
// serving, or of one attached later by Serve.
func (s *SPECU) EnableTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		s.tel.Store(nil)
		return
	}
	t := &specuTel{
		reg:             reg,
		reads:           reg.Counter("specu.reads"),
		writes:          reg.Counter("specu.writes"),
		steals:          reg.Counter("specu.steals"),
		schedDerived:    reg.Counter("specu.sched_derived"),
		schedReused:     reg.Counter("specu.sched_reused"),
		encryptRestored: reg.Counter("specu.encrypt_restored"),
		plaintext:       reg.Gauge("specu.plaintext_blocks"),
		blocks:          reg.Gauge("specu.blocks"),
		scope:           reg.Recorder().Scope("specu"),
	}
	for i := 0; i < NumShards; i++ {
		t.read[i] = reg.Histogram(fmt.Sprintf("specu.shard%02d.read", i))
		t.write[i] = reg.Histogram(fmt.Sprintf("specu.shard%02d.write", i))
		t.encrypt[i] = reg.Histogram(fmt.Sprintf("specu.shard%02d.encrypt", i))
		t.decrypt[i] = reg.Histogram(fmt.Sprintf("specu.shard%02d.decrypt", i))
	}
	t.attachSLO(s.sloEng.Load())
	s.tel.Store(t)
	if b := s.budget.Load(); b != nil {
		wirePool(b, reg)
	}
}

// EnableSLO attaches a rolling-window SLO engine: the telemetry observe
// path additionally feeds the engine's read/write/encrypt/decrypt
// windows (classes resolved by name; missing classes are no-ops).
// Telemetry must be enabled for observations to flow — the SLO engine
// shares the telemetry clock and observe call sites. Passing nil
// detaches. Not synchronized against a concurrent EnableTelemetry; wire
// both before traffic.
func (s *SPECU) EnableSLO(e *slo.Engine) {
	if e == nil {
		s.sloEng.Store(nil)
	} else {
		s.sloEng.Store(e)
	}
	if t := s.tel.Load(); t != nil {
		t2 := *t
		t2.attachSLO(e)
		s.tel.Store(&t2)
	}
}

// wirePool sets the specu.pool.workers gauge to the budget's worker count.
func wirePool(b *helperBudget, reg *telemetry.Registry) {
	reg.Gauge("specu.pool.workers").Set(int64(b.workers))
}

// addPlaintext moves the plaintext-blocks gauge by delta; a no-op on a nil
// receiver (disabled telemetry).
func (t *specuTel) addPlaintext(delta int64) {
	if t != nil {
		t.plaintext.Add(delta)
	}
}

// countScheds counts one block crypt as having reused or derived its
// schedules; a no-op on a nil receiver (disabled telemetry).
func (t *specuTel) countScheds(reused bool) {
	if t == nil {
		return
	}
	if reused {
		t.schedReused.Inc()
	} else {
		t.schedDerived.Inc()
	}
}

// observeCrypt records one block crypt against shard si in the encrypt or
// decrypt distribution; a no-op on a nil receiver (disabled telemetry).
func (t *specuTel) observeCrypt(si int, decrypt bool, start int64) {
	if t == nil {
		return
	}
	elapsed := t.reg.Now() - start
	if decrypt {
		t.decrypt[si].ObserveNs(elapsed)
		t.sloDecrypt.Observe(elapsed)
	} else {
		t.encrypt[si].ObserveNs(elapsed)
		t.sloEncrypt.Observe(elapsed)
	}
}

// blockCrypt crypts b under the loaded key — reusing the block's schedules
// when they carry the key's epoch — with per-shard encrypt/decrypt latency
// recording and plaintext-gauge maintenance. The caller holds the block's
// shard lock (same contract as cryptLoaded). tc is the op's causal trace
// context; the block crypt becomes a child span whose children are the
// per-crossbar pulse trains.
func (s *SPECU) blockCrypt(si int, b *Block, key loadedKey, addr uint64, decrypt bool, tc trace.Context) error {
	meta := traceMetaEncrypt
	if decrypt {
		meta = traceMetaDecrypt
	}
	csp := tc.Start(meta)
	t := s.tel.Load()
	start := t.now()
	t.countScheds(b.loadScheds(key.key, addr, key.epoch))
	restore := !decrypt && b.restorable()
	err := b.cryptLoaded(decrypt, csp.Context())
	csp.End(int64(len(b.xbs)), 0)
	t.observeCrypt(si, decrypt, start)
	if err == nil {
		if decrypt {
			t.addPlaintext(1)
		} else {
			t.addPlaintext(-1)
		}
		if restore && t != nil {
			t.encryptRestored.Inc()
		}
	}
	return err
}

// blockReadThrough runs b's read-through under the loaded key (schedules
// reused as in blockCrypt) into the shard's snapshot, recorded as a
// decrypt: a decrypt span and decrypt-latency sample, since the decrypt is
// the one keyed pulse train it runs. The block stays
// ciphertext, so the plaintext gauge does not move. Same locking contract
// as blockCrypt.
func (s *SPECU) blockReadThrough(si int, sh *shard, b *Block, key loadedKey, addr uint64, tc trace.Context) ([]byte, error) {
	csp := tc.Start(traceMetaDecrypt)
	t := s.tel.Load()
	start := t.now()
	t.countScheds(b.loadScheds(key.key, addr, key.epoch))
	data, err := b.readThroughLoaded(&sh.snap, csp.Context())
	csp.End(int64(len(b.xbs)), 0)
	t.observeCrypt(si, true, start)
	return data, err
}
