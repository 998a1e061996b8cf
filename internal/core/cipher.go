package core

import (
	"fmt"

	"snvmm/internal/device"
	"snvmm/internal/prng"
	"snvmm/internal/xbar"
)

// Cipher is a reusable single-crossbar SPE encryptor. The randomness data
// sets of Section 6.1 are built from independent 128-bit block encryptions
// (one 8x8 MLC-2 crossbar holds exactly 128 bits), and reusing one
// fabricated crossbar amortizes the calibration cost across millions of
// block encryptions.
type Cipher struct {
	eng *Engine
	xb  *xbar.Crossbar
	cal *xbar.Calibration
}

// NewCipher fabricates a crossbar (with the engine's parametric variation
// and the given fabrication seed) and calibrates it through the process-wide
// calibration cache.
func NewCipher(eng *Engine, seed int64) (*Cipher, error) {
	cfg := eng.P.Xbar
	cfg.Seed = seed
	xb, err := xbar.New(cfg)
	if err != nil {
		return nil, err
	}
	cal, err := xbar.CalibrationFor(xb)
	if err != nil {
		return nil, err
	}
	return &Cipher{eng: eng, xb: xb, cal: cal}, nil
}

// BlockBytes is the cipher's block size in bytes (16 for 8x8 MLC-2).
func (c *Cipher) BlockBytes() int { return c.xb.BlockBytes() }

// SetTraceSink attaches a per-pulse side-channel trace sink to the cipher's
// crossbar (see xbar.PulseTraceSink); nil detaches it. Red-team harnesses
// use this to observe every pulse an Encrypt/Decrypt call emits.
func (c *Cipher) SetTraceSink(sink xbar.PulseTraceSink, mode xbar.TraceMode) error {
	return c.xb.SetTraceSink(sink, mode)
}

// Encrypt writes pt into the crossbar, applies the keyed pulse schedule,
// and returns the resulting ciphertext.
func (c *Cipher) Encrypt(key prng.Key, pt []byte) ([]byte, error) {
	if len(pt) != c.BlockBytes() {
		return nil, fmt.Errorf("core: Cipher.Encrypt needs %d bytes, got %d", c.BlockBytes(), len(pt))
	}
	if err := c.xb.WriteBlock(pt); err != nil {
		return nil, err
	}
	if err := c.train(key, false); err != nil {
		return nil, err
	}
	return c.xb.ReadBlock(), nil
}

// Decrypt reverses Encrypt on the crossbar's current contents (which must
// be the ciphertext produced by the matching Encrypt call or an explicitly
// written ciphertext).
func (c *Cipher) Decrypt(key prng.Key, ct []byte) ([]byte, error) {
	if len(ct) != c.BlockBytes() {
		return nil, fmt.Errorf("core: Cipher.Decrypt needs %d bytes, got %d", c.BlockBytes(), len(ct))
	}
	if err := c.xb.WriteBlock(ct); err != nil {
		return nil, err
	}
	if err := c.train(key, true); err != nil {
		return nil, err
	}
	return c.xb.ReadBlock(), nil
}

// train runs key's pulse train on the crossbar: the forward train, or the
// inverse one to decrypt. A Decrypt of the ciphertext the last Encrypt
// under the same key produced rewrites the crossbar's own contents, so its
// train reuses that Encrypt's permutation indices (xbar.Crossbar.Train).
func (c *Cipher) train(key prng.Key, inverse bool) error {
	sched := prng.DeriveSchedule(key, len(c.eng.Placement), device.NumPulses)
	_, err := c.xb.Train(c.cal, c.eng.Placement, sched.Order, sched.Classes, inverse)
	return err
}
