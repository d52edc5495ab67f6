// Package spooky implements Bob Jenkins' SpookyHash V2, the 128-bit
// non-cryptographic hash that μSuite's Router uses to distribute keys
// uniformly across destination memcached leaves.
//
// The paper picks SpookyHash because it (1) hashes quickly, (2) accepts any
// key type (it hashes raw bytes), and (3) has a low collision rate.  This is
// a from-scratch Go port of the published V2 algorithm: the "short" form for
// messages under 192 bytes and the 12-variable "long" form above that.
package spooky

import "math/bits"

const (
	// spookyConst is sc_const: a fractional-golden-ratio-ish constant that
	// is odd and not particularly regular, used to initialize idle state.
	spookyConst uint64 = 0xdeadbeefdeadbeef

	numVars   = 12
	blockSize = numVars * 8 // 96-byte long-form blocks
	bufSize   = 2 * blockSize
)

// Hash128 computes the 128-bit SpookyHash V2 of message with the given
// 128-bit seed, returned as two 64-bit halves.
func Hash128(message []byte, seed1, seed2 uint64) (uint64, uint64) {
	if len(message) < bufSize {
		return shortHash(message, seed1, seed2)
	}
	return longHash(message, seed1, seed2)
}

// Hash64 computes a 64-bit hash (the first half of Hash128).
func Hash64(message []byte, seed uint64) uint64 {
	h1, _ := Hash128(message, seed, seed)
	return h1
}

// le64 reads a little-endian uint64; the reference implementation assumes a
// little-endian host and we reproduce that byte order portably.
func le64(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func le32(b []byte) uint64 {
	_ = b[3]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24
}

// shortHash handles messages shorter than 192 bytes with a 4-variable state.
func shortHash(m []byte, seed1, seed2 uint64) (uint64, uint64) {
	length := len(m)
	remainder := length % 32
	a, b := seed1, seed2
	c, d := spookyConst, spookyConst

	p := m
	if length > 15 {
		// Consume all complete 32-byte groups.
		for len(p) >= 32 {
			c += le64(p[0:])
			d += le64(p[8:])
			a, b, c, d = shortMix(a, b, c, d)
			a += le64(p[16:])
			b += le64(p[24:])
			p = p[32:]
		}
		// Then a possible 16-byte half-group.
		if remainder >= 16 {
			c += le64(p[0:])
			d += le64(p[8:])
			a, b, c, d = shortMix(a, b, c, d)
			p = p[16:]
			remainder -= 16
		}
	}

	// Fold in the final 0..15 bytes plus the total length.
	d += uint64(length) << 56
	switch remainder {
	case 15:
		d += uint64(p[14]) << 48
		fallthrough
	case 14:
		d += uint64(p[13]) << 40
		fallthrough
	case 13:
		d += uint64(p[12]) << 32
		fallthrough
	case 12:
		d += le32(p[8:])
		c += le64(p[0:])
	case 11:
		d += uint64(p[10]) << 16
		fallthrough
	case 10:
		d += uint64(p[9]) << 8
		fallthrough
	case 9:
		d += uint64(p[8])
		fallthrough
	case 8:
		c += le64(p[0:])
	case 7:
		c += uint64(p[6]) << 48
		fallthrough
	case 6:
		c += uint64(p[5]) << 40
		fallthrough
	case 5:
		c += uint64(p[4]) << 32
		fallthrough
	case 4:
		c += le32(p[0:])
	case 3:
		c += uint64(p[2]) << 16
		fallthrough
	case 2:
		c += uint64(p[1]) << 8
		fallthrough
	case 1:
		c += uint64(p[0])
	case 0:
		c += spookyConst
		d += spookyConst
	}
	a, b, c, d = shortEnd(a, b, c, d)
	return a, b
}

// shortMix is the reversible 4-variable mixing round of the short form.
func shortMix(h0, h1, h2, h3 uint64) (uint64, uint64, uint64, uint64) {
	h2 = bits.RotateLeft64(h2, 50)
	h2 += h3
	h0 ^= h2
	h3 = bits.RotateLeft64(h3, 52)
	h3 += h0
	h1 ^= h3
	h0 = bits.RotateLeft64(h0, 30)
	h0 += h1
	h2 ^= h0
	h1 = bits.RotateLeft64(h1, 41)
	h1 += h2
	h3 ^= h1
	h2 = bits.RotateLeft64(h2, 54)
	h2 += h3
	h0 ^= h2
	h3 = bits.RotateLeft64(h3, 48)
	h3 += h0
	h1 ^= h3
	h0 = bits.RotateLeft64(h0, 38)
	h0 += h1
	h2 ^= h0
	h1 = bits.RotateLeft64(h1, 37)
	h1 += h2
	h3 ^= h1
	h2 = bits.RotateLeft64(h2, 62)
	h2 += h3
	h0 ^= h2
	h3 = bits.RotateLeft64(h3, 34)
	h3 += h0
	h1 ^= h3
	h0 = bits.RotateLeft64(h0, 5)
	h0 += h1
	h2 ^= h0
	h1 = bits.RotateLeft64(h1, 36)
	h1 += h2
	h3 ^= h1
	return h0, h1, h2, h3
}

// shortEnd finalizes the short form, achieving avalanche across all state.
func shortEnd(h0, h1, h2, h3 uint64) (uint64, uint64, uint64, uint64) {
	h3 ^= h2
	h2 = bits.RotateLeft64(h2, 15)
	h3 += h2
	h0 ^= h3
	h3 = bits.RotateLeft64(h3, 52)
	h0 += h3
	h1 ^= h0
	h0 = bits.RotateLeft64(h0, 26)
	h1 += h0
	h2 ^= h1
	h1 = bits.RotateLeft64(h1, 51)
	h2 += h1
	h3 ^= h2
	h2 = bits.RotateLeft64(h2, 28)
	h3 += h2
	h0 ^= h3
	h3 = bits.RotateLeft64(h3, 9)
	h0 += h3
	h1 ^= h0
	h0 = bits.RotateLeft64(h0, 47)
	h1 += h0
	h2 ^= h1
	h1 = bits.RotateLeft64(h1, 54)
	h2 += h1
	h3 ^= h2
	h2 = bits.RotateLeft64(h2, 32)
	h3 += h2
	h0 ^= h3
	h3 = bits.RotateLeft64(h3, 25)
	h0 += h3
	h1 ^= h0
	h0 = bits.RotateLeft64(h0, 63)
	h1 += h0
	return h0, h1, h2, h3
}

// state12 is the 12-variable internal state of the long form.
type state12 [numVars]uint64

// longHash handles messages of at least 192 bytes.
func longHash(m []byte, seed1, seed2 uint64) (uint64, uint64) {
	var h state12
	h[0], h[3], h[6], h[9] = seed1, seed1, seed1, seed1
	h[1], h[4], h[7], h[10] = seed2, seed2, seed2, seed2
	h[2], h[5], h[8], h[11] = spookyConst, spookyConst, spookyConst, spookyConst

	p := m
	var data [numVars]uint64
	for len(p) >= blockSize {
		for i := 0; i < numVars; i++ {
			data[i] = le64(p[i*8:])
		}
		mix(&h, &data)
		p = p[blockSize:]
	}

	// Zero-pad the final partial block and stamp the remainder length into
	// the last byte, exactly as the reference implementation does.
	var buf [blockSize]byte
	copy(buf[:], p)
	buf[blockSize-1] = byte(len(p))
	for i := 0; i < numVars; i++ {
		data[i] = le64(buf[i*8:])
	}
	end(&h, &data)
	return h[0], h[1]
}

// mix is the long-form block round: each input word touches three state
// variables, with rotation constants chosen for maximal diffusion.
func mix(h *state12, d *[numVars]uint64) {
	h[0] += d[0]
	h[2] ^= h[10]
	h[11] ^= h[0]
	h[0] = bits.RotateLeft64(h[0], 11)
	h[11] += h[1]
	h[1] += d[1]
	h[3] ^= h[11]
	h[0] ^= h[1]
	h[1] = bits.RotateLeft64(h[1], 32)
	h[0] += h[2]
	h[2] += d[2]
	h[4] ^= h[0]
	h[1] ^= h[2]
	h[2] = bits.RotateLeft64(h[2], 43)
	h[1] += h[3]
	h[3] += d[3]
	h[5] ^= h[1]
	h[2] ^= h[3]
	h[3] = bits.RotateLeft64(h[3], 31)
	h[2] += h[4]
	h[4] += d[4]
	h[6] ^= h[2]
	h[3] ^= h[4]
	h[4] = bits.RotateLeft64(h[4], 17)
	h[3] += h[5]
	h[5] += d[5]
	h[7] ^= h[3]
	h[4] ^= h[5]
	h[5] = bits.RotateLeft64(h[5], 28)
	h[4] += h[6]
	h[6] += d[6]
	h[8] ^= h[4]
	h[5] ^= h[6]
	h[6] = bits.RotateLeft64(h[6], 39)
	h[5] += h[7]
	h[7] += d[7]
	h[9] ^= h[5]
	h[6] ^= h[7]
	h[7] = bits.RotateLeft64(h[7], 57)
	h[6] += h[8]
	h[8] += d[8]
	h[10] ^= h[6]
	h[7] ^= h[8]
	h[8] = bits.RotateLeft64(h[8], 55)
	h[7] += h[9]
	h[9] += d[9]
	h[11] ^= h[7]
	h[8] ^= h[9]
	h[9] = bits.RotateLeft64(h[9], 54)
	h[8] += h[10]
	h[10] += d[10]
	h[0] ^= h[8]
	h[9] ^= h[10]
	h[10] = bits.RotateLeft64(h[10], 22)
	h[9] += h[11]
	h[11] += d[11]
	h[1] ^= h[9]
	h[10] ^= h[11]
	h[11] = bits.RotateLeft64(h[11], 46)
	h[10] += h[0]
}

// endPartial is one finalization round of the long form.
func endPartial(h *state12) {
	h[11] += h[1]
	h[2] ^= h[11]
	h[1] = bits.RotateLeft64(h[1], 44)
	h[0] += h[2]
	h[3] ^= h[0]
	h[2] = bits.RotateLeft64(h[2], 15)
	h[1] += h[3]
	h[4] ^= h[1]
	h[3] = bits.RotateLeft64(h[3], 34)
	h[2] += h[4]
	h[5] ^= h[2]
	h[4] = bits.RotateLeft64(h[4], 21)
	h[3] += h[5]
	h[6] ^= h[3]
	h[5] = bits.RotateLeft64(h[5], 38)
	h[4] += h[6]
	h[7] ^= h[4]
	h[6] = bits.RotateLeft64(h[6], 33)
	h[5] += h[7]
	h[8] ^= h[5]
	h[7] = bits.RotateLeft64(h[7], 10)
	h[6] += h[8]
	h[9] ^= h[6]
	h[8] = bits.RotateLeft64(h[8], 13)
	h[7] += h[9]
	h[10] ^= h[7]
	h[9] = bits.RotateLeft64(h[9], 38)
	h[8] += h[10]
	h[11] ^= h[8]
	h[10] = bits.RotateLeft64(h[10], 53)
	h[9] += h[11]
	h[0] ^= h[9]
	h[11] = bits.RotateLeft64(h[11], 42)
	h[10] += h[0]
	h[1] ^= h[10]
	h[0] = bits.RotateLeft64(h[0], 54)
}

// end folds in the final padded block (the V2 change relative to V1) and
// runs three finalization rounds.
func end(h *state12, d *[numVars]uint64) {
	for i := 0; i < numVars; i++ {
		h[i] += d[i]
	}
	endPartial(h)
	endPartial(h)
	endPartial(h)
}
