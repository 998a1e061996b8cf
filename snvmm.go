// Package snvmm is the public API of the Secure Memristor-based Main
// Memory library — a full reproduction of "Secure Memristor-based Main
// Memory" (DAC 2014). It exposes the sneak-path-encrypted NVMM device
// with its TPM-gated key lifecycle; the underlying physical and
// architectural models live in the internal packages (see DESIGN.md for
// the map).
//
// Quick start:
//
//	dev, _ := snvmm.Open(snvmm.DefaultOptions())
//	dev.PowerOn()
//	dev.Write(0x0, []byte("secret data ..."))   // encrypted at rest
//	dev.PowerOff()                              // key vanishes
//	dump, _ := dev.Steal(0x0)                   // attacker sees ciphertext
package snvmm

import (
	"context"
	"fmt"

	"snvmm/internal/core"
	"snvmm/internal/prng"
	"snvmm/internal/tpm"
	"snvmm/internal/xbar"
)

// BlockSize is the device's write granularity in bytes (one cache block).
const BlockSize = core.BlockSize

// Mode selects the SPE variant.
type Mode = core.Mode

// Modes.
const (
	Serial   = core.Serial
	Parallel = core.Parallel
)

// Options configures a device.
type Options struct {
	// Mode selects SPE-serial or SPE-parallel operation.
	Mode Mode
	// VarFrac is the fabrication parametric variation (0 disables).
	VarFrac float64
	// Seed individualizes the device fabrication and key material.
	Seed int64
	// SecuritySlack is the Table 1 S parameter; negative selects the
	// paper's default (16 PoEs on the 8x8 array).
	SecuritySlack int
}

// DefaultOptions returns the paper's configuration.
func DefaultOptions() Options {
	return Options{Mode: Parallel, Seed: 1, SecuritySlack: -1}
}

// Device is a secure NVMM: SPECU + crossbar arrays + TPM.
type Device struct {
	specu *core.SPECU
	tpm   *tpm.TPM
	blob  *tpm.SealedBlob
	devID string
	key   prng.Key
	n     uint64 // challenge counter
	on    bool
}

// Open fabricates a device: solves the PoE placement, provisions the TPM,
// enrolls the NVMM and seals the SPE key to the platform state.
func Open(opt Options) (*Device, error) {
	params := core.DefaultParams()
	params.Xbar.VarFrac = opt.VarFrac
	params.Xbar.Seed = opt.Seed
	params.SecuritySlack = opt.SecuritySlack
	eng, err := core.NewEngine(params)
	if err != nil {
		return nil, err
	}
	t := tpm.New([]byte(fmt.Sprintf("snvmm-mfg-%d", opt.Seed)))
	if err := t.Extend(0, []byte("firmware-v1")); err != nil {
		return nil, err
	}
	g := prng.NewGen(uint64(opt.Seed)*0x9E3779B9 + 17)
	key := prng.NewKey(g.Uint64(), g.Uint64())
	blob, err := t.Seal(key.Bytes(), []int{0})
	if err != nil {
		return nil, err
	}
	d := &Device{
		specu: core.NewSPECU(eng, opt.Mode),
		tpm:   t,
		blob:  blob,
		devID: fmt.Sprintf("nvmm-%d", opt.Seed),
		key:   key,
	}
	d.tpm.EnrollDevice(d.devID)
	return d, nil
}

// PoECount exposes the number of PoEs per crossbar (16 for the default
// 8x8 configuration) — also the scheme's latency in cycles.
func (d *Device) PoECount() int { return d.specu.Engine().PoECount() }

// PowerOn replays the boot measurements, authenticates the NVMM through
// the TPM challenge-response, unseals the SPE key and loads it into the
// SPECU's volatile register.
func (d *Device) PowerOn() error {
	if d.on {
		return fmt.Errorf("snvmm: already powered on")
	}
	d.tpm.Reset()
	if err := d.tpm.Extend(0, []byte("firmware-v1")); err != nil {
		return err
	}
	d.n++
	ch, err := d.tpm.NewChallenge(d.devID, d.n)
	if err != nil {
		return err
	}
	devKey := d.tpm.EnrollDevice(d.devID) // fused secret, device side
	if err := d.tpm.VerifyResponse(ch, tpm.Respond(devKey, ch)); err != nil {
		return fmt.Errorf("snvmm: NVMM authentication: %w", err)
	}
	kb, err := d.tpm.Unseal(d.blob)
	if err != nil {
		return fmt.Errorf("snvmm: key unseal: %w", err)
	}
	key, err := prng.KeyFromBytes(kb)
	if err != nil {
		return err
	}
	if err := d.specu.PowerOn(key); err != nil {
		return err
	}
	d.on = true
	return nil
}

// PowerOff encrypts any remaining plaintext blocks and drops the volatile
// key — the instant-off path.
func (d *Device) PowerOff() error {
	if err := d.specu.PowerOff(); err != nil {
		return err
	}
	d.on = false
	return nil
}

// Write stores one BlockSize-byte block at the block-aligned address.
func (d *Device) Write(addr uint64, data []byte) error {
	if len(data) != BlockSize {
		return fmt.Errorf("snvmm: Write needs %d bytes, got %d", BlockSize, len(data))
	}
	if addr%BlockSize != 0 {
		return fmt.Errorf("snvmm: address %#x not block aligned", addr)
	}
	return d.specu.Write(addr, data)
}

// Read fetches the plaintext of the block at addr.
func (d *Device) Read(addr uint64) ([]byte, error) {
	return d.specu.Read(addr)
}

// Steal dumps the raw stored bits without a key — what an attacker with
// physical access obtains (Attack 1).
func (d *Device) Steal(addr uint64) ([]byte, error) {
	return d.specu.Steal(addr)
}

// EncryptedFraction reports the fraction of allocated blocks currently in
// ciphertext.
func (d *Device) EncryptedFraction() float64 { return d.specu.EncryptedFraction() }

// Flush encrypts any blocks left plaintext by Serial-mode reads.
func (d *Device) Flush() error { return d.specu.EncryptPending() }

// PlacementCells returns a copy of the ILP-chosen PoE placement.
func (d *Device) PlacementCells() []xbar.Cell {
	return append([]xbar.Cell(nil), d.specu.Engine().Placement...)
}

// WriteOp is one element of a batched write (see WriteBatch).
type WriteOp = core.WriteOp

// ReadResult is one element of a batched read result (see ReadBatch).
type ReadResult = core.ReadResult

// Serve lets the device's batched operations run in parallel: a
// WriteBatch/ReadBatch groups its ops into one run per touched SPECU shard
// and drains the runs on its caller plus up to `workers`-1 helper
// goroutines (<= 0 selects GOMAXPROCS), drawn from one budget that every
// batch on the device shares. depth is unused. Cancelling ctx stops
// serving. The synchronous Read/Write API is unaffected: each call runs on
// its caller's goroutine.
func (d *Device) Serve(ctx context.Context, workers, depth int) error {
	return d.specu.Serve(ctx, workers, depth)
}

// StopServing detaches the helper budget. Batches already running finish;
// later batched operations take the sequential path.
func (d *Device) StopServing() { d.specu.Close() }

// WriteBatch stores many blocks at once, returning one error slot per op.
// Addresses must be block aligned and payloads BlockSize bytes.
func (d *Device) WriteBatch(ctx context.Context, ops []WriteOp) []error {
	for _, op := range ops {
		if len(op.Data) != BlockSize {
			errs := make([]error, len(ops))
			for i := range errs {
				errs[i] = fmt.Errorf("snvmm: WriteBatch needs %d-byte payloads, got %d at %#x", BlockSize, len(op.Data), op.Addr)
			}
			return errs
		}
		if op.Addr%BlockSize != 0 {
			errs := make([]error, len(ops))
			for i := range errs {
				errs[i] = fmt.Errorf("snvmm: address %#x not block aligned", op.Addr)
			}
			return errs
		}
	}
	return d.specu.WriteBatch(ctx, ops)
}

// ReadBatch fetches many blocks at once, one ReadResult per address in
// input order.
func (d *Device) ReadBatch(ctx context.Context, addrs []uint64) []ReadResult {
	return d.specu.ReadBatch(ctx, addrs)
}
