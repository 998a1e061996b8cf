// Functional shadowing: the cycle-level simulator is timing-only (the
// trace carries addresses, not data), so on its own it can never tell
// whether the SPECU would actually return the right bytes under the same
// miss stream. Shadow closes that gap — it mirrors the NVMM's block
// traffic onto a real sharded, concurrently-served core.SPECU, writing a
// deterministic payload per (address, version) and verifying that every
// read observes the bytes last written.
package sim

import (
	"context"
	"fmt"
	"sync"

	"snvmm/internal/core"
	"snvmm/internal/mem"
	"snvmm/internal/prng"
	"snvmm/internal/trace"
)

// ShadowConfig bounds the functional shadow's work so it can ride along a
// timing run without dominating it (every shadowed op is a real 4-crossbar
// pulse sequence).
type ShadowConfig struct {
	// Workers is the SPECU's worker count for coalesced batches (<= 0:
	// GOMAXPROCS; see core.SPECU.Serve).
	Workers int
	// MaxBlocks caps how many distinct block addresses are tracked; ops on
	// further addresses are ignored once the cap is hit (0 = 256).
	MaxBlocks int
	// MaxOps caps the total number of shadowed operations (0 = 4096).
	MaxOps int
	// FlushEvery is the batch size handed to the SPECU (0 = 64).
	FlushEvery int
}

// Shadow implements mem.AccessSink over a served core.SPECU. It buffers
// the access stream and flushes it in two phases per window — all writes
// as one WriteBatch, then all reads as one ReadBatch — so that within a
// window every read observes the window's final write. A write arriving
// for an address with a buffered read forces a flush first, preserving
// program order per address.
type Shadow struct {
	cfg   ShadowConfig
	specu *core.SPECU
	ctx   context.Context

	mu       sync.Mutex // guards everything below (sink calls are serial; stats readers are not)
	model    map[uint64][]byte
	version  map[uint64]uint64
	writes   []core.WriteOp
	writeSet map[uint64]int // addr -> index into writes (last write wins)
	reads    []uint64
	readSet  map[uint64]bool

	// Stats.
	Ops      uint64 // operations shadowed (after caps)
	Verified uint64 // reads whose payload matched the model
	Skipped  uint64 // operations dropped by MaxBlocks/MaxOps caps
	failures []string
}

// NewShadow fabricates a default-parameter SPE engine, powers a SPECU on
// with a seed-derived key and serves it with cfg.Workers.
func NewShadow(ctx context.Context, cfg ShadowConfig, seed int64) (*Shadow, error) {
	if cfg.MaxBlocks <= 0 {
		cfg.MaxBlocks = 256
	}
	if cfg.MaxOps <= 0 {
		cfg.MaxOps = 4096
	}
	if cfg.FlushEvery <= 0 {
		cfg.FlushEvery = 64
	}
	eng, err := core.NewEngine(core.DefaultParams())
	if err != nil {
		return nil, err
	}
	s := core.NewSPECU(eng, core.Parallel)
	g := prng.NewGen(uint64(seed)*0x9E3779B9 + 0x5151)
	if err := s.PowerOn(prng.NewKey(g.Uint64(), g.Uint64())); err != nil {
		return nil, err
	}
	if err := s.Serve(ctx, cfg.Workers, 0); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return &Shadow{
		cfg:      cfg,
		specu:    s,
		ctx:      ctx,
		model:    make(map[uint64][]byte),
		version:  make(map[uint64]uint64),
		writeSet: make(map[uint64]int),
		readSet:  make(map[uint64]bool),
	}, nil
}

// NewShadowWith wraps an externally built, already powered-and-served SPECU
// instead of fabricating one. The red-team harness uses this to shadow a
// SPECU it also crash-injects: the shadow mirrors traffic, the harness owns
// the power lifecycle.
func NewShadowWith(ctx context.Context, cfg ShadowConfig, specu *core.SPECU) (*Shadow, error) {
	if specu == nil {
		return nil, fmt.Errorf("sim: NewShadowWith needs a SPECU")
	}
	if cfg.MaxBlocks <= 0 {
		cfg.MaxBlocks = 256
	}
	if cfg.MaxOps <= 0 {
		cfg.MaxOps = 4096
	}
	if cfg.FlushEvery <= 0 {
		cfg.FlushEvery = 64
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return &Shadow{
		cfg:      cfg,
		specu:    specu,
		ctx:      ctx,
		model:    make(map[uint64][]byte),
		version:  make(map[uint64]uint64),
		writeSet: make(map[uint64]int),
		readSet:  make(map[uint64]bool),
	}, nil
}

// SPECU exposes the shadowed control unit (tests and reporting).
func (s *Shadow) SPECU() *core.SPECU { return s.specu }

// payload derives the deterministic 64-byte pattern for (addr, version).
func payload(addr, version uint64) []byte {
	g := prng.NewGen(addr*0x9E3779B97F4A7C15 ^ version)
	out := make([]byte, core.BlockSize)
	for i := 0; i < len(out); i += 8 {
		v := g.Uint64()
		for j := 0; j < 8; j++ {
			out[i+j] = byte(v >> (8 * j))
		}
	}
	return out
}

func (s *Shadow) align(addr uint64) uint64 { return addr &^ (core.BlockSize - 1) }

// admits reports whether addr may be tracked under the block cap.
func (s *Shadow) admits(addr uint64) bool {
	if _, ok := s.model[addr]; ok {
		return true
	}
	return len(s.model) < s.cfg.MaxBlocks
}

// OnWrite mirrors an NVMM block write (mem.AccessSink).
func (s *Shadow) OnWrite(addr, now uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	addr = s.align(addr)
	if s.Ops+uint64(len(s.writes)+len(s.reads)) >= uint64(s.cfg.MaxOps) || !s.admits(addr) {
		s.Skipped++
		return
	}
	if s.readSet[addr] {
		// A buffered read must observe the pre-write value: flush first.
		s.flushLocked()
	}
	s.enqueueWrite(addr)
	s.maybeFlushLocked()
}

// OnRead mirrors an NVMM block read (mem.AccessSink).
func (s *Shadow) OnRead(addr, now uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	addr = s.align(addr)
	if s.Ops+uint64(len(s.writes)+len(s.reads)) >= uint64(s.cfg.MaxOps) || !s.admits(addr) {
		s.Skipped++
		return
	}
	if _, seen := s.model[addr]; !seen {
		// Cold read: the NVMM returns whatever the cells hold; seed the
		// address with a deterministic cold pattern so the read verifies.
		s.enqueueWrite(addr)
	}
	if !s.readSet[addr] {
		s.reads = append(s.reads, addr)
		s.readSet[addr] = true
	}
	s.maybeFlushLocked()
}

// enqueueWrite records a write of the next version's payload. mu held.
func (s *Shadow) enqueueWrite(addr uint64) {
	s.version[addr]++
	data := payload(addr, s.version[addr])
	s.model[addr] = data
	if i, ok := s.writeSet[addr]; ok {
		s.writes[i].Data = data
		return
	}
	s.writeSet[addr] = len(s.writes)
	s.writes = append(s.writes, core.WriteOp{Addr: addr, Data: data})
}

func (s *Shadow) maybeFlushLocked() {
	if len(s.writes)+len(s.reads) >= s.cfg.FlushEvery {
		s.flushLocked()
	}
}

// flushLocked pushes the buffered window through the SPECU: writes first
// (WriteBatch), then reads (ReadBatch), verifying each read against the
// model. mu held.
func (s *Shadow) flushLocked() {
	if len(s.writes) > 0 {
		for i, err := range s.specu.WriteBatch(s.ctx, s.writes) {
			s.Ops++
			if err != nil {
				s.fail(fmt.Sprintf("write %#x: %v", s.writes[i].Addr, err))
			}
		}
	}
	if len(s.reads) > 0 {
		for _, r := range s.specu.ReadBatch(s.ctx, s.reads) {
			s.Ops++
			switch {
			case r.Err != nil:
				s.fail(fmt.Sprintf("read %#x: %v", r.Addr, r.Err))
			case string(r.Data) != string(s.model[r.Addr]):
				s.fail(fmt.Sprintf("read %#x: payload mismatch (version %d)", r.Addr, s.version[r.Addr]))
			default:
				s.Verified++
			}
		}
	}
	s.writes = s.writes[:0]
	s.reads = s.reads[:0]
	clear(s.writeSet)
	clear(s.readSet)
}

func (s *Shadow) fail(msg string) {
	if len(s.failures) < 16 {
		s.failures = append(s.failures, msg)
	}
}

// Drain flushes any buffered window.
func (s *Shadow) Drain() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.flushLocked()
}

// Close drains the window and stops serving the SPECU.
func (s *Shadow) Close() {
	s.Drain()
	s.specu.Close()
}

// Err returns nil if every shadowed read verified, or an error summarizing
// the first mismatches.
func (s *Shadow) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.failures) == 0 {
		return nil
	}
	return fmt.Errorf("sim: shadow verification failed (%d recorded): %v", len(s.failures), s.failures)
}

// Stats snapshots the shadow's counters.
func (s *Shadow) Stats() (ops, verified, skipped uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.Ops, s.Verified, s.Skipped
}

// RunShadowed is Run with a functional shadow attached to the NVMM: the
// timing result is identical to Run's, and every shadowed block access is
// additionally executed on a real concurrent SPECU and verified.
func RunShadowed(profile trace.Profile, engine mem.EncryptionEngine, maxInsts int64, seed int64, sh *Shadow) (Result, error) {
	return run(profile, engine, maxInsts, seed, sh)
}
