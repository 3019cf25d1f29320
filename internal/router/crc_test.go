package router

import (
	"math"
	"testing"

	"repro/internal/sim"
)

// bitSerialFlitCRC is the definition flitCRC must reproduce: CRC-16/CCITT
// (polynomial 0x1021, init 0xFFFF, MSB first, no final XOR) fed one bit at a
// time over the packet ID and the sequence number, each least significant
// byte first, then the VC.
func bitSerialFlitCRC(pktID int64, seq uint64, vc int8) uint16 {
	crc := uint16(0xFFFF)
	feed := func(b byte) {
		crc ^= uint16(b) << 8
		for i := 0; i < 8; i++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
	}
	for i := 0; i < 8; i++ {
		feed(byte(uint64(pktID) >> (8 * i)))
	}
	for i := 0; i < 8; i++ {
		feed(byte(seq >> (8 * i)))
	}
	feed(byte(vc))
	return crc
}

type crcInput struct {
	pktID int64
	seq   uint64
	vc    int8
}

// TestFlitCRCPinned pins flitCRC to values computed outside this package
// (Python's binascii.crc_hqx with init 0xFFFF over the same 17 bytes), so a
// table built from a wrong polynomial or a reflected bit order fails even if
// the bit-serial oracle were edited along with it.
func TestFlitCRCPinned(t *testing.T) {
	cases := []struct {
		in   crcInput
		want uint16
	}{
		{crcInput{0, 0, 0}, 0xc7ec},
		{crcInput{12345, 678, 2}, 0xfa21},
		{crcInput{-1, math.MaxUint64, -1}, 0x981c},
		{crcInput{math.MaxInt64, 1 << 63, math.MaxInt8}, 0xc214},
	}
	for _, c := range cases {
		if got := flitCRC(c.in.pktID, c.in.seq, c.in.vc); got != c.want {
			t.Errorf("flitCRC%+v = %#04x, want %#04x", c.in, got, c.want)
		}
	}
}

// TestFlitCRCMatchesBitSerial checks the table CRC against the bit-serial
// definition on edge values, every single-bit input and seeded random
// triples.
func TestFlitCRCMatchesBitSerial(t *testing.T) {
	ins := []crcInput{
		{0, 0, 0}, {1, 1, 1}, {-1, math.MaxUint64, -1},
		{math.MinInt64, 0, math.MinInt8}, {math.MaxInt64, math.MaxUint64, math.MaxInt8},
	}
	for bit := 0; bit < 64; bit++ {
		ins = append(ins, crcInput{pktID: int64(1) << bit}, crcInput{seq: uint64(1) << bit})
	}
	for bit := 0; bit < 8; bit++ {
		ins = append(ins, crcInput{vc: int8(uint8(1) << bit)})
	}
	r := sim.NewRNG(15)
	for i := 0; i < 100_000; i++ {
		ins = append(ins, crcInput{int64(r.Uint64()), r.Uint64(), int8(r.Uint64())})
	}
	for _, in := range ins {
		if got, want := flitCRC(in.pktID, in.seq, in.vc), bitSerialFlitCRC(in.pktID, in.seq, in.vc); got != want {
			t.Fatalf("flitCRC%+v = %#04x, bit-serial %#04x", in, got, want)
		}
	}
}

func FuzzFlitCRC(f *testing.F) {
	f.Add(int64(0), uint64(0), int8(0))
	f.Add(int64(12345), uint64(678), int8(2))
	f.Add(int64(-1), uint64(math.MaxUint64), int8(-1))
	f.Fuzz(func(t *testing.T, pktID int64, seq uint64, vc int8) {
		if got, want := flitCRC(pktID, seq, vc), bitSerialFlitCRC(pktID, seq, vc); got != want {
			t.Fatalf("flitCRC(%d, %d, %d) = %#04x, bit-serial %#04x", pktID, seq, vc, got, want)
		}
	})
}

// BenchmarkFlitCRC measures one CRC, as the sender's stamp and the
// receiver's check each compute it.
func BenchmarkFlitCRC(b *testing.B) {
	var acc uint16
	for i := 0; i < b.N; i++ {
		acc ^= flitCRC(int64(i)<<32|int64(i), uint64(i), int8(i&3))
	}
	sinkCRC = acc
}

var sinkCRC uint16
