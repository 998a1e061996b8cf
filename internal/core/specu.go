package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"snvmm/internal/prng"
	"snvmm/internal/telemetry/slo"
	"snvmm/internal/telemetry/trace"
	"snvmm/internal/xbar"
)

// Mode selects between the paper's two SPE variants (Section 7).
type Mode int

const (
	// Serial leaves a block decrypted after a read until it is written
	// back or the re-encryption timer fires; reads of decrypted blocks
	// are free but a window of plaintext exists in the NVMM.
	Serial Mode = iota
	// Parallel re-encrypts immediately after every read, keeping 100% of
	// memory encrypted at the cost of the encryption latency per read.
	Parallel
)

func (m Mode) String() string {
	if m == Serial {
		return "SPE-serial"
	}
	return "SPE-parallel"
}

// NumShards is the number of independently locked partitions of the block
// map. Accesses to blocks in different shards proceed concurrently; a
// power of two so the shard index is a mask of the mixed address hash.
const NumShards = 32

// shard is one partition of the block map: its own lock, its own blocks.
// The lock is held exclusively for the whole pulse sequence of any
// operation that mutates a resident block, which serializes same-block
// accesses while leaving other shards free — the paper's banked NVMM
// picture, with one SPE pipeline per bank group.
type shard struct {
	mu     sync.RWMutex
	blocks map[uint64]*Block
	// snap is the crossbar snapshot Parallel read-throughs save into. It
	// is only touched under mu held exclusively, so one per shard serves
	// every block of the shard without allocating.
	snap xbar.Snapshot
}

// SPECU is the Sneak Path Encryption Control Unit: it sits between the L2
// cache and the NVMM, holds the key in volatile storage while powered, and
// drives block encryption/decryption. All methods are safe for concurrent
// use; see Serve for the batched, worker-pool-driven fast path.
type SPECU struct {
	eng  *Engine
	mode Mode

	// keyMu orders every data operation against the key lifecycle: ops
	// hold it shared for their whole duration, PowerOn/PowerOff hold it
	// exclusively. PowerOff therefore acts as a barrier — in-flight
	// operations complete under the old key before the flush begins, and
	// operations arriving after it fail with ErrNoKey.
	keyMu  sync.RWMutex
	key    prng.Key
	hasKey bool

	shards [NumShards]shard

	// pool, when non-nil, runs the coalesced shard runs of batch
	// operations in parallel.
	pool atomic.Pointer[Pool]

	// tel, when non-nil, is the resolved instrument set (EnableTelemetry).
	// The disabled fast path is this one load and a branch.
	tel atomic.Pointer[specuTel]

	// tracer, when non-nil, records causal spans for every batch
	// (EnableTracing). Detached tracing is one load and a branch per
	// batch; all span plumbing below it is value types.
	tracer atomic.Pointer[trace.Tracer]

	// sloEng, when non-nil, is the rolling-window SLO engine the telemetry
	// observe path feeds (EnableSLO).
	sloEng atomic.Pointer[slo.Engine]
}

// NewSPECU creates a control unit for a device built from the engine's
// crossbar design.
func NewSPECU(eng *Engine, mode Mode) *SPECU {
	s := &SPECU{eng: eng, mode: mode}
	for i := range s.shards {
		s.shards[i].blocks = make(map[uint64]*Block)
	}
	return s
}

// Engine exposes the underlying SPE engine.
func (s *SPECU) Engine() *Engine { return s.eng }

// Mode reports the configured SPE variant.
func (s *SPECU) Mode() Mode { return s.mode }

// Trace lane assignment. Lanes are Perfetto-thread grouping hints: the
// batch root lives on the caller lane and each coalesced shard run on its
// shard's lane. Shard-run spans start after the shard lock is acquired, so
// one lane's spans are serialized by construction; a run's op, block-crypt
// and pulse-train spans nest inside it on the same lane.
const (
	laneCaller    = 0
	laneShardBase = 1 // lanes 1..NumShards: coalesced shard runs
)

// EnableTracing attaches a causal tracer: every batch becomes a trace
// root whose spans follow the op through coalesced shard runs, pool
// claim/steal, the block crypts and down to the pulse trains. Passing nil
// detaches; a detached SPECU pays one atomic load and a branch per batch
// and zero allocations.
func (s *SPECU) EnableTracing(tr *trace.Tracer) {
	if tr != nil {
		tr.NameLane(laneCaller, "batch caller")
		for i := 0; i < NumShards; i++ {
			tr.NameLane(uint32(laneShardBase+i), fmt.Sprintf("shard %02d", i))
		}
	}
	s.tracer.Store(tr)
}

// Tracer returns the attached causal tracer (nil when tracing is off).
func (s *SPECU) Tracer() *trace.Tracer { return s.tracer.Load() }

// shardIndex maps a block address to its shard index. The multiplicative
// hash spreads block-aligned (low-bits-zero) addresses across all shards.
func shardIndex(addr uint64) int {
	h := addr * 0x9E3779B97F4A7C15
	h ^= h >> 32
	return int(h & (NumShards - 1))
}

// shardOf maps a block address to its shard.
func (s *SPECU) shardOf(addr uint64) *shard {
	return &s.shards[shardIndex(addr)]
}

// PowerOn installs the key released by the TPM into the SPECU's volatile
// key register. Re-installing the same key is a no-op; installing a
// different key over a live one fails with ErrKeyLoaded (it would strand
// every resident ciphertext block).
func (s *SPECU) PowerOn(key prng.Key) error {
	sp := s.tel.Load().span(metaPowerOn)
	s.keyMu.Lock()
	defer s.keyMu.Unlock()
	if s.hasKey {
		if s.key == key {
			sp.End(1, 0)
			return nil
		}
		sp.End(0, 1)
		return ErrKeyLoaded
	}
	s.key = key
	s.hasKey = true
	sp.End(1, 0)
	return nil
}

// PowerOff drops the volatile key. Blocks that are still plaintext at this
// moment (Serial mode) are encrypted first — the paper's power-down flush —
// and the caller can model the cold-boot window with PlaintextBlocks before
// calling this. Concurrent data operations either complete before the
// flush (their shard work is done under the old key) or fail with ErrNoKey
// after it. Calling PowerOff while already off succeeds only if no
// plaintext remains; otherwise it reports ErrNoKey instead of silently
// leaving plaintext in the NVMM.
func (s *SPECU) PowerOff() error {
	// The span opens before the barrier acquire, so its duration covers
	// waiting out in-flight operations plus the flush itself; A0 reports
	// the number of blocks the flush encrypted, A1 flags failure.
	sp := s.tel.Load().span(metaPowerOff)
	s.keyMu.Lock()
	defer s.keyMu.Unlock()
	if !s.hasKey {
		if n := s.plaintextCount(); n > 0 {
			sp.End(0, 1)
			return fmt.Errorf("core: %d plaintext blocks resident at power-off: %w", n, ErrNoKey)
		}
		sp.End(0, 0)
		return nil
	}
	flushed, err := s.encryptAll(s.key)
	if err != nil {
		sp.End(int64(flushed), 1)
		return err
	}
	s.key = prng.Key{}
	s.hasKey = false
	sp.End(int64(flushed), 0)
	return nil
}

// HasKey reports whether the volatile key register is loaded.
func (s *SPECU) HasKey() bool {
	s.keyMu.RLock()
	defer s.keyMu.RUnlock()
	return s.hasKey
}

// snapshotKey returns the live key or ErrNoKey. Callers must hold keyMu
// shared for the duration of the operation that uses the key.
func (s *SPECU) snapshotKey() (prng.Key, error) {
	if !s.hasKey {
		return prng.Key{}, ErrNoKey
	}
	return s.key, nil
}

// blockLocked fetches or fabricates the block at addr. The shard lock must
// be held exclusively.
func (s *SPECU) blockLocked(sh *shard, addr uint64) (*Block, error) {
	if b, ok := sh.blocks[addr]; ok {
		return b, nil
	}
	b, err := s.eng.NewBlock(int64(addr))
	if err != nil {
		return nil, err
	}
	sh.blocks[addr] = b
	if t := s.tel.Load(); t != nil {
		t.blocks.Add(1)
		t.plaintext.Add(1) // fresh blocks are plaintext until encrypted
	}
	return b, nil
}

// Write stores a 64-byte cache block at addr: write phase then encryption
// phase (Section 4.1).
func (s *SPECU) Write(addr uint64, data []byte) error {
	t := s.tel.Load()
	start := t.now()
	err := s.write(addr, data)
	t.observeWrite(shardIndex(addr), start)
	return err
}

func (s *SPECU) write(addr uint64, data []byte) error {
	return s.writeCtx(addr, data, trace.Context{})
}

// writeCtx is write with the op's causal trace context; the inline batch
// path uses it so per-op spans keep their crypt/pulse children.
func (s *SPECU) writeCtx(addr uint64, data []byte, tc trace.Context) error {
	s.keyMu.RLock()
	defer s.keyMu.RUnlock()
	key, err := s.snapshotKey()
	if err != nil {
		return err
	}
	si := shardIndex(addr)
	sh := &s.shards[si]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return s.writeLocked(si, sh, key, addr, data, tc)
}

// writeLocked is the write body. The caller holds keyMu (shared) and the
// shard lock (exclusive); coalesced batch runs call it directly so a run
// of same-shard ops pays the lock acquisitions once, not once per op.
// tc is the op's causal trace context (the zero Context when untraced).
func (s *SPECU) writeLocked(si int, sh *shard, key prng.Key, addr uint64, data []byte, tc trace.Context) error {
	b, err := s.blockLocked(sh, addr)
	if err != nil {
		return err
	}
	// Overwrite: the write phase reprograms every cell, so stale
	// ciphertext is replaced, not decrypted first.
	wasEncrypted := b.Encrypted()
	if err := b.program(data); err != nil {
		return err
	}
	if wasEncrypted {
		s.tel.Load().addPlaintext(1)
	}
	return s.blockCrypt(si, b, key, addr, false, tc)
}

// Read returns the plaintext of the block at addr. In Parallel mode the
// block never leaves ciphertext: it is read through (decrypted, sensed and
// restored to its ciphertext under the shard lock); in Serial mode it
// stays decrypted until written back or EncryptPending is called.
func (s *SPECU) Read(addr uint64) ([]byte, error) {
	t := s.tel.Load()
	start := t.now()
	data, err := s.read(addr)
	t.observeRead(shardIndex(addr), start)
	return data, err
}

func (s *SPECU) read(addr uint64) ([]byte, error) {
	return s.readCtx(addr, trace.Context{})
}

// readCtx is read with the op's causal trace context (see writeCtx).
func (s *SPECU) readCtx(addr uint64, tc trace.Context) ([]byte, error) {
	s.keyMu.RLock()
	defer s.keyMu.RUnlock()
	key, err := s.snapshotKey()
	if err != nil {
		return nil, err
	}
	si := shardIndex(addr)
	sh := &s.shards[si]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return s.readLocked(si, sh, key, addr, tc)
}

// readLocked is the read body. Same locking contract as writeLocked.
func (s *SPECU) readLocked(si int, sh *shard, key prng.Key, addr uint64, tc trace.Context) ([]byte, error) {
	b, ok := sh.blocks[addr]
	if !ok {
		return nil, errNoBlockAt(addr)
	}
	if s.mode == Parallel && b.Encrypted() {
		return s.blockReadThrough(si, sh, b, key, addr, tc)
	}
	if b.Encrypted() {
		if err := s.blockCrypt(si, b, key, addr, true, tc); err != nil {
			return nil, err
		}
	}
	data, err := b.ReadPlain()
	if err != nil {
		return nil, err
	}
	if s.mode == Parallel {
		if err := s.blockCrypt(si, b, key, addr, false, tc); err != nil {
			return nil, err
		}
	}
	return data, nil
}

// encryptAll encrypts every currently-plaintext block, returning how many
// it encrypted. keyMu must be held (shared or exclusive) by the caller.
func (s *SPECU) encryptAll(key prng.Key) (int, error) {
	flushed := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for addr, b := range sh.blocks {
			if !b.Encrypted() {
				if err := s.blockCrypt(i, b, key, addr, false, trace.Context{}); err != nil {
					sh.mu.Unlock()
					return flushed, err
				}
				flushed++
			}
		}
		sh.mu.Unlock()
	}
	return flushed, nil
}

// EncryptPending encrypts every currently-plaintext block (the Serial-mode
// background timer, and the first step of power-down).
func (s *SPECU) EncryptPending() error {
	sp := s.tel.Load().span(metaEncryptPending)
	s.keyMu.RLock()
	defer s.keyMu.RUnlock()
	key, err := s.snapshotKey()
	if err != nil {
		sp.End(0, 1)
		return err
	}
	flushed, err := s.encryptAll(key)
	if err != nil {
		sp.End(int64(flushed), 1)
		return err
	}
	sp.End(int64(flushed), 0)
	return nil
}

// plaintextCount counts plaintext blocks; callers must hold keyMu to keep
// the count stable against concurrent encrypt/decrypt.
func (s *SPECU) plaintextCount() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, b := range sh.blocks {
			if !b.Encrypted() {
				n++
			}
		}
		sh.mu.RUnlock()
	}
	return n
}

// PlaintextBlocks counts blocks currently stored unencrypted.
func (s *SPECU) PlaintextBlocks() int {
	return s.plaintextCount()
}

// Blocks returns the number of allocated blocks.
func (s *SPECU) Blocks() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += len(sh.blocks)
		sh.mu.RUnlock()
	}
	return n
}

// Addresses returns every allocated block address, in no particular order.
// Red-team scrapers iterate it with Steal to sweep the raw NVMM contents.
func (s *SPECU) Addresses() []uint64 {
	var out []uint64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for addr := range sh.blocks {
			out = append(out, addr)
		}
		sh.mu.RUnlock()
	}
	return out
}

// EncryptedFraction is the fraction of allocated blocks holding ciphertext.
func (s *SPECU) EncryptedFraction() float64 {
	total, plain := 0, 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		total += len(sh.blocks)
		for _, b := range sh.blocks {
			if !b.Encrypted() {
				plain++
			}
		}
		sh.mu.RUnlock()
	}
	if total == 0 {
		return 1
	}
	return 1 - float64(plain)/float64(total)
}

// Steal returns the raw stored bits at addr without any key — the attacker
// operation of Attack 1. It fails only if the address was never written.
func (s *SPECU) Steal(addr uint64) ([]byte, error) {
	if t := s.tel.Load(); t != nil {
		t.steals.Inc()
	}
	sh := s.shardOf(addr)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	b, ok := sh.blocks[addr]
	if !ok {
		return nil, errNoBlockAt(addr)
	}
	return b.ReadRaw(), nil
}
