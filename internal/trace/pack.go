package trace

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// The one event codec. A block of events packs into the v3 payload that
// stream.go frames. Each event is
//
//	head u8                 bit 7 addrBit, bits 4-6 t, bits 0-3 n
//	tid uvarint             only when n is an escape
//	time delta varint       from the previous event of the block
//	addr delta varint       only under addrBit: from the block's last address
//	size uvarint
//
// An n of at most maxKind is the event's kind and t its TID, 0 to 7. An n
// of escape or escape+1 escapes a TID of inlineTIDs or more, which follows
// the head: the kind is 8(n-escape)+t. addrBit is set when Addr is not 0;
// a fence, a transaction mark or user data, whose Addr is 0, spells no
// address and leaves the delta base where it is. Both deltas reset per
// block. The same bytes are a file's block, a Writer's block and a
// retained trace's sealed block, so a retained trace costs what its file
// costs, about 4.8 B an event, and encoding it writes its blocks as they
// are.
const (
	addrBit    = 0x80
	inlineTIDs = 8
	escape     = maxKind + 1
)

// pack appends the v3 payload of block to dst. It is the only encoder of
// event fields; callers check the kinds (Writer.Write) or record only
// known ones (Trace.Append). An event of any other kind, KReleased among
// them, is packed with a kind nibble of 15, which unpack refuses, rather
// than as an escape or a nibble it would read as something else.
func pack(dst []byte, block []Event) []byte {
	var prevTime, prevAddr uint64 // deltas reset per block
	for i := range block {
		e := &block[i]
		n, t := byte(e.Kind), byte(e.TID)
		if n > maxKind {
			n = 15
		}
		if e.TID >= inlineTIDs {
			n, t = escape+n>>3, n&7
		}
		head := t<<4 | n
		if e.Addr != 0 {
			head |= addrBit
		}
		dst = append(dst, head)
		if e.TID >= inlineTIDs {
			dst = binary.AppendUvarint(dst, uint64(e.TID))
		}
		dst = binary.AppendVarint(dst, int64(uint64(e.Time)-prevTime))
		if e.Addr != 0 {
			dst = binary.AppendVarint(dst, int64(uint64(e.Addr)-prevAddr))
			prevAddr = uint64(e.Addr)
		}
		dst = binary.AppendUvarint(dst, uint64(e.Size))
		prevTime = uint64(e.Time)
	}
	return dst
}

// unpack decodes the payload p of len(block) events into block, checking
// every field an Event cannot hold, and reports whether p is canonical:
// what pack makes of those events. A payload that spells an event
// otherwise — an overlong varint, an escaped TID below inlineTIDs, or an
// address delta that lands on 0 — still decodes, losslessly.
//
// A realistic event's head takes a byte and its time delta and size one or
// two; they are read inline. Its address delta, when it has one, takes one
// to five bytes, varying from event to event, so it is read from an
// eight-byte word without a branch on its length or on whether it is
// there: its end is the word's first byte below 0x80, and its value those
// bytes' low seven bits, gathered, both masked off when the head spells no
// address. Any other event, one with a varint spelled overlong, and the
// last few bytes of a payload go through unpackEvent, which reads an event
// field by field and tells how pack would have spelled it.
func unpack(block []Event, p []byte) (canonical bool, err error) {
	pos := 0
	var prevTime, prevAddr uint64 // deltas reset per block
	var odd uint64                // 1 once an event is spelled otherwise than pack would
	for i := 0; i < len(block); i++ {
		// The fast path, for as long as it holds.
		for ; i < len(block) && pos+12 < len(p) && p[pos]&15 <= maxKind; i++ {
			h, q := p[pos], pos+1
			has := uint64(h >> 7)
			var bail uint64 // not 0 for an event to leave to unpackEvent
			dt := uint64(p[q])
			if dt >= 0x80 { // a time delta of two bytes is common too
				dt, bail = dt&0x7f|uint64(p[q+1])<<7, zeroByte(p[q+1])
				q++
			}
			q++
			w := binary.LittleEndian.Uint64(p[q:])
			b := uint(bits.TrailingZeros64(^w & 0x8080808080808080)) // the high bit of the varint's last byte
			q += int((b + 1) >> 3 & -uint(has))
			da := varintBits(w, b) & -has
			bail |= (overlong(w, b) | uint64(b>>6)) & has
			size := uint64(p[q])
			if size >= 0x80 { // and a size of two
				size, bail = size&0x7f|uint64(p[q+1])<<7, bail|zeroByte(p[q+1])
				q++
			}
			if bail|(dt|size)>>14 != 0 {
				break
			}
			pos = q + 1
			// The deltas are binary.Varint's zigzag of the unsigned value.
			prevTime += uint64(int64(dt>>1) ^ -int64(dt&1))
			prevAddr += uint64(int64(da>>1) ^ -int64(da&1))
			if prevAddr == 0 && has != 0 {
				odd = 1 // an address spelled though it is 0
			}
			// Field by field: an Event literal is built on the stack and
			// copied out with a load wider than the stores that built it,
			// which stalls every event.
			e := &block[i]
			e.Kind, e.TID, e.Size = Kind(h&15), uint16(h>>4&7), uint32(size)
			e.Time, e.Addr = memTime(prevTime), memAddr(prevAddr&-has)
		}
		if i == len(block) {
			break
		}
		f, next, err := unpackEvent(p, pos, i)
		if err != nil {
			return false, err
		}
		pos, odd = next, odd|f.odd
		prevTime += uint64(int64(f.dt>>1) ^ -int64(f.dt&1))
		prevAddr += uint64(int64(f.da>>1) ^ -int64(f.da&1))
		if prevAddr == 0 && f.has != 0 {
			odd = 1 // an address spelled though it is 0
		}
		e := &block[i]
		e.Kind, e.TID, e.Size = Kind(f.kind), uint16(f.tid), uint32(f.size)
		e.Time, e.Addr = memTime(prevTime), memAddr(prevAddr&-f.has)
	}
	if pos != len(p) {
		return false, fmt.Errorf("trace: block has %d trailing payload bytes", len(p)-pos)
	}
	return odd == 0, nil
}

// fields are one event's fields as a payload spells them: its kind, its
// TID, its deltas still zigzagged and its size; has is 1 when it spells an
// address delta, and odd 1 when it spells a TID or a varint otherwise than
// pack would.
type fields struct {
	kind                        byte
	tid, dt, da, size, has, odd uint64
}

// zeroByte is 1 when v is 0, else 0.
func zeroByte(v byte) uint64 { return (uint64(v) - 1) >> 63 }

// overlong is 1 when the varint that ends at bit b of w, the high bit of
// its last byte, and starts at w's first byte is longer than a byte and
// ends in a zero byte: when a shorter spelling of its value exists. A b of
// 64, no end in w, is no varint, and 0.
func overlong(w uint64, b uint) uint64 {
	return zeroByte(byte(w>>(b&56))) & ((7 - uint64(b)) >> 63)
}

// varintBits is the value of the varint that ends at bit b of w, the high
// bit of its last byte, and starts at w's first byte: the low seven bits of
// each of its bytes, packed. A b of 64 is no varint, and a value of no use.
func varintBits(w uint64, b uint) uint64 {
	x := w & (2<<(b&63) - 1) & 0x7f7f7f7f7f7f7f7f
	x = x&0x007f007f007f007f | x>>1&0x3f803f803f803f80
	x = x&0x00003fff00003fff | x>>2&0x0fffc0000fffc000
	return x&0x000000000fffffff | x>>4&0x00fffffff0000000
}

// unpackEvent decodes the event at p[pos:], the i-th of its block, field
// by field, and returns its fields and the position after it.
func unpackEvent(p []byte, pos, i int) (f fields, next int, err error) {
	if pos >= len(p) {
		return f, 0, fmt.Errorf("trace: block event %d: payload exhausted", i)
	}
	h := p[pos]
	pos++
	f.kind, f.tid, f.has = h&15, uint64(h>>4&7), uint64(h>>7)
	escaped := f.kind == escape || f.kind == escape+1
	if escaped {
		f.kind = (f.kind-escape)<<3 | byte(f.tid)
	}
	if f.kind > maxKind {
		return f, 0, fmt.Errorf("trace: block event %d: invalid kind %d", i, f.kind)
	}
	vals := [4]uint64{f.tid} // tid, time, addr, size
	for j, name := range [4]string{"tid", "time", "addr", "size"} {
		if j == 0 && !escaped || j == 2 && f.has == 0 {
			continue
		}
		v, n := binary.Uvarint(p[pos:])
		if n <= 0 {
			return f, 0, fmt.Errorf("trace: block event %d: bad %s varint", i, name)
		}
		vals[j], pos = v, pos+n
		if n > 1 && p[pos-1] == 0 {
			f.odd = 1
		}
	}
	f.tid, f.dt, f.da, f.size = vals[0], vals[1], vals[2], vals[3]
	if escaped && f.tid < inlineTIDs {
		f.odd = 1
	}
	if f.tid >= maxThreads {
		return f, 0, fmt.Errorf("trace: block event %d: tid %d out of range (max %d)", i, f.tid, maxThreads-1)
	}
	if f.size > math.MaxUint32 {
		return f, 0, fmt.Errorf("trace: block event %d: size %d out of range (max %d)", i, f.size, uint64(math.MaxUint32))
	}
	return f, pos, nil
}
