package main

import (
	"bytes"
	"fmt"
)

// checker is the benchmark's model of the device: the last bytes written
// to every block. Every read is compared with it, and after a power-off
// every resident block's raw cells must differ from it (Attack 1: a stolen
// NVMM yields no plaintext). Each check is one attempted operation; a
// failed or wrong one counts toward failed_frac.
type checker struct {
	model     map[uint64][]byte
	attempted int64
	failed    int64
	failures  []string // the first few, for standard error

	// corruptEvery, when > 0, flips a byte of every corruptEvery-th read
	// before it is checked: the self-test that the checker catches a
	// wrong read.
	corruptEvery int
	reads        int
}

func newChecker(corruptEvery int) *checker {
	return &checker{model: make(map[uint64][]byte), corruptEvery: corruptEvery}
}

func (c *checker) fail(format string, args ...any) {
	c.failed++
	if len(c.failures) < 8 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// wrote records a write's outcome; a successful write updates the model.
func (c *checker) wrote(addr uint64, data []byte, err error) {
	c.attempted++
	if err != nil {
		c.fail("write %#x: %v", addr, err)
		return
	}
	c.model[addr] = data
}

// read checks a read's outcome against the model.
func (c *checker) read(addr uint64, data []byte, err error) {
	c.attempted++
	c.reads++
	if err != nil {
		c.fail("read %#x: %v", addr, err)
		return
	}
	if c.corruptEvery > 0 && c.reads%c.corruptEvery == 0 && len(data) > 0 {
		data = append([]byte(nil), data...)
		data[0] ^= 0x80
	}
	if want, ok := c.model[addr]; !ok || !bytes.Equal(data, want) {
		c.fail("read %#x: bytes differ from the last write", addr)
	}
}

// stolen checks a raw dump taken while the device is off: it must not be
// the block's plaintext.
func (c *checker) stolen(addr uint64, raw []byte, err error) {
	c.attempted++
	if err != nil {
		c.fail("steal %#x: %v", addr, err)
		return
	}
	if bytes.Equal(raw, c.model[addr]) {
		c.fail("steal %#x: plaintext resident after power-off", addr)
	}
}

// expect records a yes/no check made by the benchmark itself.
func (c *checker) expect(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.fail(format, args...)
	}
}

// merge adds the counts of a ladder rung's private checker.
func (c *checker) merge(o *checker) {
	c.attempted += o.attempted
	c.failed += o.failed
	for _, f := range o.failures {
		if len(c.failures) < 8 {
			c.failures = append(c.failures, f)
		}
	}
}

func (c *checker) failedFrac() float64 {
	if c.attempted == 0 {
		return 0
	}
	return float64(c.failed) / float64(c.attempted)
}
