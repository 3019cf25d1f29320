// Package wire is the checkpoint payload codec: a positional binary
// encoding that carries no field names, tags or type descriptions. A
// record lists its own fields, in declaration order, in one Wire method,
// and that one method serves the sizing, encoding and decoding passes, so
// the three cannot disagree about the layout.
//
// Per kind:
//
//   - a signed integer is a zigzag varint, an unsigned one a varint,
//     whatever their width;
//   - a float64 is its IEEE 754 bits, byte-reversed, as a varint, so zero
//     takes one byte and a value with a short mantissa, such as a small
//     integer, a few;
//   - a bool is one byte, 0 or 1;
//   - a string is its length as a varint, then its bytes;
//   - a slice is its length as a varint, then its elements;
//   - an array is its elements;
//   - a pointer is a presence byte, 0 or 1, then its element when present;
//   - a struct is its fields in declaration order, an embedded struct's
//     fields in its place.
//
// Decoding assigns every field it reads, so a decoded record keeps
// nothing its target held before; a zero-length slice and an absent
// pointer decode to nil, and every slice and pointer is freshly
// allocated. Every read is bounds-checked, and a slice is allocated only
// once the unread input can hold its elements' minimum encodings, so
// hostile input costs an error, never a panic or an allocation out of
// proportion to its length.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// Record is a value that lists its fields to a Codec, in declaration
// order.
type Record interface {
	Wire(c *Codec)
}

type mode uint8

const (
	sizing mode = iota
	encoding
	decoding
)

// Codec is one pass over a record: it sizes, encodes or decodes it, as
// Size, Put or Decode started it. Encoding writes into a buffer sized
// beforehand and decoding reads from one, both at an offset, so no pass
// stores a pointer per field.
type Codec struct {
	mode mode
	n    int    // sizing: the bytes counted so far
	buf  []byte // encoding: the output; decoding: the input
	off  int    // encoding and decoding: the next byte
	err  error  // decoding: the first error
}

var errShort = errors.New("wire: input ends inside a field")

// Size returns the length of r's encoding.
func Size(r Record) int {
	c := Codec{mode: sizing}
	r.Wire(&c)
	return c.n
}

// Put encodes r into b and returns the length of the encoding. b must be
// at least Size(r) bytes long; Put panics on a shorter one.
func Put(b []byte, r Record) int {
	c := Codec{mode: encoding, buf: b}
	r.Wire(&c)
	return c.off
}

// Decode overwrites r with the record b encodes; b must hold exactly one
// encoding. On error r is left partly overwritten.
func Decode(b []byte, r Record) error {
	c := Codec{mode: decoding, buf: b}
	r.Wire(&c)
	if c.err == nil && c.off != len(b) {
		c.err = fmt.Errorf("wire: %d bytes follow the record", len(b)-c.off)
	}
	return c.err
}

// fail records the first decoding error and skips the unread input, so
// every later read fails at once and allocates nothing.
func (c *Codec) fail(err error) {
	if c.err == nil {
		c.err = err
	}
	c.off = len(c.buf)
}

// left is the unread input's length.
func (c *Codec) left() int { return len(c.buf) - c.off }

// uvarintLen is the length of u's varint.
func uvarintLen(u uint64) int { return (bits.Len64(u|1) + 6) / 7 }

// putUvarint writes one varint.
func (c *Codec) putUvarint(u uint64) {
	if u < 0x80 {
		c.buf[c.off] = byte(u)
		c.off++
		return
	}
	c.off += binary.PutUvarint(c.buf[c.off:], u)
}

// uvarint reads one varint.
func (c *Codec) uvarint() uint64 {
	u, k := binary.Uvarint(c.buf[c.off:])
	if k <= 0 {
		if k == 0 {
			c.fail(errShort)
		} else {
			c.fail(errors.New("wire: varint overflows 64 bits"))
		}
		return 0
	}
	c.off += k
	return u
}

// putFlag writes one byte, 0 or 1.
func (c *Codec) putFlag(v bool) {
	var b byte
	if v {
		b = 1
	}
	c.buf[c.off] = b
	c.off++
}

// flag reads one byte that must be 0 or 1.
func (c *Codec) flag(what string) bool {
	if c.left() == 0 {
		c.fail(errShort)
		return false
	}
	b := c.buf[c.off]
	if b > 1 {
		c.fail(fmt.Errorf("wire: %s byte %d is neither 0 nor 1", what, b))
		return false
	}
	c.off++
	return b == 1
}

// Int sizes, writes or reads a signed integer as a zigzag varint. A value
// that does not fit *p is a decoding error.
func Int[T ~int | ~int8 | ~int16 | ~int32 | ~int64](c *Codec, p *T) {
	switch v := int64(*p); c.mode {
	case sizing:
		c.n += uvarintLen(uint64(v<<1) ^ uint64(v>>63))
	case encoding:
		c.putUvarint(uint64(v<<1) ^ uint64(v>>63))
	default:
		u := c.uvarint()
		v = int64(u>>1) ^ -int64(u&1)
		*p = T(v)
		if int64(*p) != v {
			c.fail(fmt.Errorf("wire: %d does not fit a %T", v, *p))
		}
	}
}

// Uint sizes, writes or reads an unsigned integer as a varint. A value
// that does not fit *p is a decoding error.
func Uint[T ~uint8 | ~uint16 | ~uint32 | ~uint64](c *Codec, p *T) {
	switch c.mode {
	case sizing:
		c.n += uvarintLen(uint64(*p))
	case encoding:
		c.putUvarint(uint64(*p))
	default:
		u := c.uvarint()
		*p = T(u)
		if uint64(*p) != u {
			c.fail(fmt.Errorf("wire: %d does not fit a %T", u, *p))
		}
	}
}

// Float sizes, writes or reads a float64 as its IEEE 754 bits,
// byte-reversed, as a varint: the exponent and the high mantissa bits come
// first, so the trailing zero bytes of a short mantissa drop out.
func Float[T ~float64](c *Codec, p *T) {
	switch u := bits.ReverseBytes64(math.Float64bits(float64(*p))); c.mode {
	case sizing:
		c.n += uvarintLen(u)
	case encoding:
		c.putUvarint(u)
	default:
		*p = T(math.Float64frombits(bits.ReverseBytes64(c.uvarint())))
	}
}

// Bool sizes, writes or reads a bool as one byte, 0 or 1.
func Bool(c *Codec, p *bool) {
	switch c.mode {
	case sizing:
		c.n++
	case encoding:
		c.putFlag(*p)
	default:
		*p = c.flag("bool")
	}
}

// String sizes, writes or reads a string as its length, then its bytes.
func String[T ~string](c *Codec, p *T) {
	switch c.mode {
	case sizing:
		c.n += uvarintLen(uint64(len(*p))) + len(*p)
	case encoding:
		c.putUvarint(uint64(len(*p)))
		c.off += copy(c.buf[c.off:], *p)
	default:
		n := c.uvarint()
		if n > uint64(c.left()) {
			c.fail(fmt.Errorf("wire: %d-byte string in %d bytes", n, c.left()))
			*p = ""
			return
		}
		*p = T(c.buf[c.off : c.off+int(n)])
		c.off += int(n)
	}
}

// Slice sizes, writes or reads a slice as its length, then each element
// through elem.
func Slice[T any](c *Codec, p *[]T, elem func(*Codec, *T)) {
	s := head(c, p, elem)
	for i := range s {
		elem(c, &s[i])
	}
}

// Records is Slice for a slice of records.
func Records[T any, P interface {
	*T
	Record
}](c *Codec, p *[]T) {
	s := head(c, p, func(c *Codec, e *T) { P(e).Wire(c) })
	for i := range s {
		P(&s[i]).Wire(c)
	}
}

// head sizes or writes the length of *p and returns *p; decoding, it
// reads the length and returns a fresh *p of that many zero elements, or
// nil for a zero length. It allocates only when the unread input holds
// that many minimum-size elements: the encoding of T's zero value, which
// elem sizes.
func head[T any](c *Codec, p *[]T, elem func(*Codec, *T)) []T {
	switch c.mode {
	case sizing:
		c.n += uvarintLen(uint64(len(*p)))
	case encoding:
		c.putUvarint(uint64(len(*p)))
	default:
		n := c.uvarint()
		*p = nil
		if n == 0 {
			return nil
		}
		mode := c.mode
		c.mode, c.n = sizing, 0
		var zero T
		elem(c, &zero)
		c.mode = mode
		if n > uint64(c.left()/max(c.n, 1)) {
			c.fail(fmt.Errorf("wire: %d-element slice in %d bytes", n, c.left()))
			return nil
		}
		*p = make([]T, n)
	}
	return *p
}

// Ptr sizes, writes or reads a pointer to a record as a presence byte,
// then the record when present. It decodes into a fresh record.
func Ptr[T any, P interface {
	*T
	Record
}](c *Codec, p **T) {
	switch c.mode {
	case sizing:
		c.n++
	case encoding:
		c.putFlag(*p != nil)
	default:
		*p = nil
		if c.flag("pointer presence") {
			*p = new(T)
		}
	}
	if *p != nil {
		P(*p).Wire(c)
	}
}
