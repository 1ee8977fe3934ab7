package main

import (
	"bytes"

	"nmad/internal/sim"
)

// poolSize bounds the seeded byte pool every payload is cut from. It
// must exceed the largest message of any workload.
const poolSize = 256 << 10

// payloads hands out seeded payload patterns: each message is a window
// of one seeded byte pool at a seeded offset, so a receiver can check
// what landed byte for byte without the sender copying anything.
type payloads struct {
	pool []byte
	// corrupt makes the first message of every run go out with a
	// flipped bit: the negative control of the checks.
	corrupt bool
	sent    int
}

func newPayloads(seed uint64, corrupt bool) *payloads {
	p := &payloads{pool: make([]byte, poolSize), corrupt: corrupt}
	sim.NewRNG(seed ^ 0x5eed_9a7e).Bytes(p.pool)
	return p
}

// offset draws the pool offset of a size-byte message.
func (p *payloads) offset(rng *sim.RNG, size int) int {
	return rng.Intn(poolSize - size + 1)
}

// reset starts a new run.
func (p *payloads) reset() { p.sent = 0 }

// send returns the bytes to send for the message at off. The pool is
// never written, so every sender shares it; only the corrupted message
// gets a private, damaged copy.
func (p *payloads) send(off, size int) []byte {
	b := p.pool[off : off+size : off+size]
	p.sent++
	if p.corrupt && p.sent == 1 && size > 0 {
		b = bytes.Clone(b)
		b[size/2] ^= 0x40
	}
	return b
}

// check reports whether got is exactly the message at off.
func (p *payloads) check(got []byte, off int) bool {
	return bytes.Equal(got, p.pool[off:off+len(got)])
}
