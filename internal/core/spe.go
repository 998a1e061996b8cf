// Package core implements the paper's contribution: Sneak-Path Encryption
// (SPE) and the Sneak Path Encryption Control Unit (SPECU) that orchestrates
// it between the L2 cache and the NVMM.
//
// A 64-byte cache block is stored across four 8x8 MLC-2 crossbars (Section
// 6.2.1). The ILP of Table 1 (package poe) fixes the covering set of points
// of encryption; the 88-bit key, split into address and voltage seeds
// (package prng), selects the order in which the PoEs fire and the pulse
// class applied at each. Encryption applies the keyed pulse sequence with
// sneak paths enabled; decryption applies the hysteresis-matched inverse
// pulses in reverse order (package xbar).
package core

import (
	"fmt"

	"snvmm/internal/device"
	"snvmm/internal/poe"
	"snvmm/internal/prng"
	"snvmm/internal/telemetry/trace"
	"snvmm/internal/xbar"
)

// traceMetaPulseTrain is the span one crossbar's keyed pulse sequence
// records: A0 = pulse count (the PoE placement size — public geometry,
// not key material), A1 = crossbar index within the block.
var traceMetaPulseTrain = &trace.SpanMeta{Subsystem: "xbar", Name: "pulse_train"}

// BlockSize is the cache-block granularity SPE encrypts, in bytes.
const BlockSize = 64

// PulseTime is the paper's per-PoE write-pulse latency (Section 6.4).
const PulseTime = 100e-9 // seconds

// DefaultSecuritySlack is the Table 1 slack S at which the ILP optimum for
// the default 8x8 crossbar is exactly the paper's 16 PoEs.
const DefaultSecuritySlack = 56

// Params configures an SPE engine.
type Params struct {
	Xbar xbar.Config
	// SecuritySlack is Table 1's S. Negative means DefaultSecuritySlack.
	SecuritySlack int
	// MaxNodes bounds the placement ILP search (0 = solver default).
	MaxNodes int
	// PoEs, if non-nil, skips the ILP and uses this placement directly.
	PoEs []xbar.Cell
}

// DefaultParams returns the paper's configuration: 8x8 MLC-2 crossbars with
// a 16-PoE covering set.
func DefaultParams() Params {
	return Params{Xbar: xbar.DefaultConfig(), SecuritySlack: -1}
}

// Engine holds the per-design state of SPE: the crossbar geometry and the
// PoE placement. Engines are immutable after construction and shared by all
// blocks of a device.
type Engine struct {
	P         Params
	Placement []xbar.Cell
}

// NewEngine validates the configuration and solves the PoE placement ILP.
func NewEngine(p Params) (*Engine, error) {
	if err := p.Xbar.Validate(); err != nil {
		return nil, err
	}
	if p.Xbar.Cells()%4 != 0 {
		return nil, fmt.Errorf("core: crossbar cell count %d not byte-aligned", p.Xbar.Cells())
	}
	if BlockSize%(p.Xbar.Cells()/4) != 0 {
		return nil, fmt.Errorf("core: %d-byte blocks not divisible into %d-byte crossbars", BlockSize, p.Xbar.Cells()/4)
	}
	e := &Engine{P: p}
	if p.PoEs != nil {
		for _, c := range p.PoEs {
			if !p.Xbar.InBounds(c) {
				return nil, fmt.Errorf("core: PoE %+v out of bounds", c)
			}
		}
		e.Placement = append([]xbar.Cell(nil), p.PoEs...)
		return e, nil
	}
	slack := p.SecuritySlack
	if slack < 0 {
		slack = DefaultSecuritySlack
		if slack > p.Xbar.Cells()-1 {
			slack = p.Xbar.Cells() - 1
		}
	}
	res, err := poe.Solve(poe.Spec{Cfg: p.Xbar, S: slack, MaxNodes: p.MaxNodes})
	if err != nil {
		return nil, fmt.Errorf("core: PoE placement: %w", err)
	}
	e.Placement = res.PoEs
	return e, nil
}

// PoECount returns the number of pulses per crossbar encryption — also the
// scheme's latency in memory cycles (one pulse per cycle, crossbars of a
// block operate in parallel).
func (e *Engine) PoECount() int { return len(e.Placement) }

// DecryptLatencyCycles is the read-path latency SPE adds (Table 3: 16).
func (e *Engine) DecryptLatencyCycles() int { return e.PoECount() }

// EncryptLatencyCycles is the latency of the encryption phase after a write
// or a parallel-mode re-encryption.
func (e *Engine) EncryptLatencyCycles() int { return e.PoECount() }

// EncryptTime is the wall-clock time to encrypt one block (Section 6.4:
// 16 pulses x 100 ns = 1.6 us for the default configuration).
func (e *Engine) EncryptTime() float64 { return float64(e.PoECount()) * PulseTime }

// CrossbarsPerBlock returns how many crossbars store one cache block.
func (e *Engine) CrossbarsPerBlock() int {
	return BlockSize / (e.P.Xbar.Cells() / 4)
}

// Block is one cache-block's worth of NVMM storage: several crossbars with
// their calibrations, encrypted and decrypted as a unit.
type Block struct {
	eng       *Engine
	xbs       []*xbar.Crossbar
	cals      []*xbar.Calibration
	encrypted bool
	// scheds holds one reusable schedule per crossbar. crypt runs under the
	// block's shard lock, so at most one crypt is live per block and the
	// schedules can be flat fields instead of per-call allocations; with
	// them a warm block encrypts and decrypts without allocating.
	scheds []prng.Schedule
	// schedEpoch is the SPECU key epoch scheds were derived under, or 0
	// when an explicit key derived them; see loadScheds.
	schedEpoch uint64
	// ct holds the packed levels of every crossbar, in crossbar order, as
	// the block's last in-place decrypt under a SPECU key found them: the
	// ciphertext it decrypted. ctEpoch is that decrypt's schedEpoch while
	// the block has not changed since, 0 otherwise; see cryptLoaded.
	ct      []uint64
	ctEpoch uint64
}

// NewBlock fabricates the crossbars of one block. seed individualizes the
// per-cell parametric variation of this block's crossbars (only meaningful
// when the config's VarFrac > 0). Calibrations come from the process-wide
// cache, so an unvaried memory fabricates blocks without re-characterizing
// the same device identity per block.
func (e *Engine) NewBlock(seed int64) (*Block, error) {
	n := e.CrossbarsPerBlock()
	b := &Block{eng: e, xbs: make([]*xbar.Crossbar, n), cals: make([]*xbar.Calibration, n)}
	for i := range b.xbs {
		cfg := e.P.Xbar
		cfg.Seed = seed*257 + int64(i)
		xb, err := xbar.New(cfg)
		if err != nil {
			return nil, err
		}
		b.xbs[i] = xb
		if b.cals[i], err = xbar.CalibrationFor(xb); err != nil {
			return nil, err
		}
	}
	b.scheds = make([]prng.Schedule, n)
	return b, nil
}

// Encrypted reports whether the block currently holds ciphertext.
func (b *Block) Encrypted() bool { return b.encrypted }

// bytesPerXbar returns the data bytes stored in one crossbar.
func (b *Block) bytesPerXbar() int { return b.xbs[0].BlockBytes() }

// WritePlain programs plaintext into the block (the paper's write phase).
// The block must not currently be encrypted.
func (b *Block) WritePlain(data []byte) error {
	if b.encrypted {
		return fmt.Errorf("core: block is encrypted; decrypt before writing")
	}
	return b.program(data)
}

// program is the write phase on any block: it reprograms every cell with
// data, so whatever the block held — plaintext or stale ciphertext — is
// replaced, and the block holds plaintext afterwards. Overwriting
// ciphertext this way leaves the cells, and the crossbar trackers (whose
// memos the changed cells invalidate), exactly as decrypting first would;
// only the decrypt's wear is missing, because the hardware never applies
// it. The saved ciphertext no longer matches the cells, so its tag is
// cleared.
func (b *Block) program(data []byte) error {
	if len(data) != BlockSize {
		return fmt.Errorf("core: WritePlain needs %d bytes, got %d", BlockSize, len(data))
	}
	per := b.bytesPerXbar()
	for i, xb := range b.xbs {
		if err := xb.WriteBlock(data[i*per : (i+1)*per]); err != nil {
			return err
		}
	}
	b.encrypted = false
	b.ctEpoch = 0
	return nil
}

// ReadPlain reads the plaintext; it fails if the block is encrypted.
func (b *Block) ReadPlain() ([]byte, error) {
	if b.encrypted {
		return nil, fmt.Errorf("core: block is encrypted")
	}
	return b.ReadRaw(), nil
}

// ReadRaw dumps the block's current stored bits regardless of encryption
// state — the view an attacker with physical access obtains.
func (b *Block) ReadRaw() []byte {
	out := make([]byte, 0, BlockSize)
	for _, xb := range b.xbs {
		out = xb.AppendBlock(out)
	}
	return out
}

// subKey derives the per-crossbar key by folding the block tweak (its
// physical address) and the crossbar index into both seeds. The SPECU
// performs the same derivation on decryption, so the mixing is transparent;
// it prevents identical plaintext at different addresses from producing
// identical ciphertext.
func subKey(k prng.Key, tweak uint64, idx int) prng.Key {
	mix := func(x uint64) uint64 {
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		return x
	}
	t := mix(tweak*4 + uint64(idx))
	return prng.NewKey(k.Address^t, k.Voltage^mix(t+0x9E3779B97F4A7C15))
}

// Encrypt runs the SPE encryption phase: for each crossbar, the keyed PoE
// order and pulse classes are derived and the pulses applied with sneak
// paths enabled.
func (b *Block) Encrypt(key prng.Key, tweak uint64) error {
	return b.crypt(key, tweak, false, trace.Context{})
}

// Decrypt applies the inverse pulses in reverse order (Section 5.3). With a
// wrong key the pulses still apply — the hardware cannot tell — but the
// result is garbage; use ReadPlain after decrypting with the right key.
func (b *Block) Decrypt(key prng.Key, tweak uint64) error {
	return b.crypt(key, tweak, true, trace.Context{})
}

// loadScheds makes b.scheds the schedules of key for this block's
// crossbars and reports whether it kept the ones already there. epoch is
// the SPECU key epoch key was loaded in, or 0 for an explicit key. Within
// one epoch everything subKey mixes — the key, the tweak (a SPECU block's
// address) and the crossbar index — is fixed, so schedules derived under
// the same nonzero epoch for the engine's current PoE count are reused;
// anything else derives afresh and retags, and an explicit key tags 0 so
// its schedules are never reused.
func (b *Block) loadScheds(key prng.Key, tweak, epoch uint64) bool {
	n := len(b.eng.Placement)
	if epoch != 0 && b.schedEpoch == epoch && len(b.scheds[0].Order) == n {
		return true
	}
	for i := range b.scheds {
		prng.DeriveScheduleInto(&b.scheds[i], subKey(key, tweak, i), n, device.NumPulses)
	}
	b.schedEpoch = epoch
	return false
}

// cryptXbar applies crossbar i's loaded schedule: the forward pulse
// sequence for encryption, the hysteresis-matched inverse pulses in reverse
// order for decryption. Crossbars of a block are independent (disjoint
// cells, disjoint calibrations), so their order does not affect the result.
func (b *Block) cryptXbar(i int, decrypt bool) error {
	sched := &b.scheds[i]
	xb := b.xbs[i]
	if decrypt {
		for step := len(sched.Order) - 1; step >= 0; step-- {
			p := b.eng.Placement[sched.Order[step]]
			if err := xb.ApplyPulse(b.cals[i], p, xbar.InverseClass(sched.Classes[step])); err != nil {
				return err
			}
		}
		return nil
	}
	for step := 0; step < len(sched.Order); step++ {
		p := b.eng.Placement[sched.Order[step]]
		if err := xb.ApplyPulse(b.cals[i], p, sched.Classes[step]); err != nil {
			return err
		}
	}
	return nil
}

// crypt encrypts or decrypts the block under an explicit key, deriving its
// schedules afresh.
func (b *Block) crypt(key prng.Key, tweak uint64, decrypt bool, tc trace.Context) error {
	b.loadScheds(key, tweak, 0)
	return b.cryptLoaded(decrypt, tc)
}

// cryptLoaded drives the block's crossbars through cryptXbar one after
// another with the schedules loadScheds left. Section 6.2.1 has the
// crossbars of a block pulse in parallel in hardware; the model charges
// that as PoECount() cycles (EncryptLatencyCycles), and the simulator's
// parallelism is the coalesced shard run above it, so a block is one
// serial unit of work here. The caller must hold the block's shard lock
// when the block is shared.
//
// A decrypt under a SPECU key first saves the ciphertext into b.ct and,
// on success, tags it with the key epoch. An encrypt that finds the tag
// equal to its schedules' epoch — nothing changed the block since that
// decrypt, and the schedules are the ones it ran — restores the saved
// words instead of pulsing (restorable): the forward train undoes the
// inverse train pulse by pulse, so it would rebuild them bit for bit, and
// every full train charges the same wear whatever the key or data
// (xbar.Crossbar.RestoreTrain). Any crypt clears the tag before it
// changes a cell, so an explicit-key crypt leaves none behind.
func (b *Block) cryptLoaded(decrypt bool, tc trace.Context) error {
	if decrypt && !b.encrypted {
		return fmt.Errorf("core: block not encrypted")
	}
	if !decrypt && b.encrypted {
		return fmt.Errorf("core: block already encrypted")
	}
	restore := !decrypt && b.restorable()
	b.ctEpoch = 0
	if decrypt && b.schedEpoch != 0 {
		b.saveCiphertext()
	}
	ct := b.ct
	for i, xb := range b.xbs {
		xsp := tc.Start(traceMetaPulseTrain)
		var err error
		if restore {
			var n int
			n, err = xb.RestoreTrain(b.cals[i], b.eng.Placement, ct)
			ct = ct[n:]
		} else {
			err = b.cryptXbar(i, decrypt)
		}
		xsp.End(int64(len(b.eng.Placement)), int64(i))
		if err != nil {
			return err
		}
	}
	b.encrypted = !decrypt
	if decrypt {
		b.ctEpoch = b.schedEpoch
	}
	return nil
}

// restorable reports whether an encrypt with the loaded schedules can
// restore the ciphertext the block's last decrypt saved (see cryptLoaded).
func (b *Block) restorable() bool {
	return b.ctEpoch != 0 && b.ctEpoch == b.schedEpoch
}

// saveCiphertext copies the packed levels of every crossbar into b.ct,
// allocating it on first use: one packed word holds 32 cells, 8 data
// bytes.
func (b *Block) saveCiphertext() {
	if b.ct == nil {
		b.ct = make([]uint64, 0, len(b.xbs)*((b.bytesPerXbar()+7)/8))
	}
	b.ct = b.ct[:0]
	for _, xb := range b.xbs {
		b.ct = xb.AppendPacked(b.ct)
	}
}

// readThrough is the SPE-parallel read of an encrypted block under an
// explicit key, deriving its schedules afresh.
func (b *Block) readThrough(key prng.Key, tweak uint64, snap *xbar.Snapshot, tc trace.Context) ([]byte, error) {
	b.loadScheds(key, tweak, 0)
	return b.readThroughLoaded(snap, tc)
}

// readThroughLoaded is the read-through with the schedules loadScheds
// left. For each crossbar it saves the cell state into snap, applies the
// inverse pulses, senses the plaintext and rewinds the crossbar to the
// saved ciphertext. The rewind is the re-encryption the paper runs after
// every parallel read: it leaves the cells, the wear and the tracker state
// the forward pulse train would, without running that train (see
// xbar.Crossbar.Rewind). A pulse error rewinds the crossbar it hit before
// returning, so the block holds its ciphertext whatever happens, and
// plaintext exists only inside the call, under the caller's shard lock.
func (b *Block) readThroughLoaded(snap *xbar.Snapshot, tc trace.Context) ([]byte, error) {
	if !b.encrypted {
		return nil, fmt.Errorf("core: block not encrypted")
	}
	out := make([]byte, 0, BlockSize)
	for i, xb := range b.xbs {
		xb.Save(snap)
		xsp := tc.Start(traceMetaPulseTrain)
		err := b.cryptXbar(i, true)
		xsp.End(int64(len(b.eng.Placement)), int64(i))
		if err == nil {
			out = xb.AppendBlock(out)
		}
		xb.Rewind(snap)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Wear returns the total pulse count across all cells of the block.
func (b *Block) Wear() uint64 {
	var total uint64
	for _, xb := range b.xbs {
		for _, w := range xb.Wear() {
			total += w
		}
	}
	return total
}
