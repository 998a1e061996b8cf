package core

import (
	"errors"
	"fmt"
)

// Typed errors for the SPECU service layer. Callers match them with
// errors.Is; wrapped variants carry the address or count that triggered
// them.
var (
	// ErrNoKey is returned by any encrypt/decrypt path invoked while the
	// SPECU's volatile key register is empty (powered down, or never
	// powered on). It is also returned by PowerOff when plaintext blocks
	// remain but no key is available to secure them.
	ErrNoKey = errors.New("core: SPECU has no key (powered down?)")

	// ErrPoweredOff is the name crash-injection harnesses match on when an
	// operation lands on a power-cycled SPECU. It is an alias of ErrNoKey —
	// the SPECU's only powered-off observable is its empty key register —
	// so errors.Is(err, ErrPoweredOff) and errors.Is(err, ErrNoKey) are
	// interchangeable.
	ErrPoweredOff = ErrNoKey

	// ErrKeyLoaded is returned by PowerOn when a different key is already
	// installed: silently replacing it would leave every resident
	// ciphertext block undecryptable.
	ErrKeyLoaded = errors.New("core: SPECU already holds a different key")

	// ErrNoBlock is returned when an operation addresses a block that was
	// never written.
	ErrNoBlock = errors.New("core: no block at address")

	// ErrServing is returned by Serve when a worker pool is already
	// running for this SPECU.
	ErrServing = errors.New("core: SPECU already serving")
)

// errNoBlockAt wraps ErrNoBlock with the offending address.
func errNoBlockAt(addr uint64) error {
	return fmt.Errorf("core: %w: %#x", ErrNoBlock, addr)
}
