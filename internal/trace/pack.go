package trace

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
)

// The one event codec. A block of events packs into the v2 payload that
// stream.go frames: per event, kind u8, tid uvarint, time delta varint,
// addr delta varint, size uvarint, the deltas from the previous event of
// the block. The same bytes are a file's block, a Writer's block and a
// retained trace's sealed block, so a retained trace costs what its file
// costs, about 7 B an event, and encoding it writes its blocks as they
// are.

// pack appends the v2 payload of block to dst. It is the only encoder of
// event fields; callers check the kinds (Writer.Write) or record only
// known ones (Trace.Append).
func pack(dst []byte, block []Event) []byte {
	var prevTime, prevAddr uint64 // deltas reset per block
	for i := range block {
		e := &block[i]
		dst = append(dst, byte(e.Kind))
		dst = binary.AppendUvarint(dst, uint64(e.TID))
		dst = binary.AppendVarint(dst, int64(uint64(e.Time)-prevTime))
		dst = binary.AppendVarint(dst, int64(uint64(e.Addr)-prevAddr))
		dst = binary.AppendUvarint(dst, uint64(e.Size))
		prevTime, prevAddr = uint64(e.Time), uint64(e.Addr)
	}
	return dst
}

// canonical reports whether the payload p, which unpacks without error,
// is what pack makes of its events: whether it spells every varint in its
// shortest form. An overlong varint ends in a zero byte after a
// continuation byte (one of 0x80 or more), and a shortest one never does;
// a kind byte is never a continuation byte, so no other pair of bytes is
// one. The pairs are found eight bytes at a time.
func canonical(p []byte) bool {
	const low7, high = 0x7f7f7f7f7f7f7f7f, 0x8080808080808080
	var cont uint64 // 0x80 when the byte before p is a continuation byte
	for ; len(p) >= 8; p = p[8:] {
		w := binary.LittleEndian.Uint64(p)
		zero := ^(w&low7 + low7 | w) & high // the high bit of each zero byte
		if (w&high<<8|cont)&zero != 0 {
			return false
		}
		cont = w >> 56 & 0x80
	}
	for _, b := range p {
		if cont != 0 && b == 0 {
			return false
		}
		cont = uint64(b) & 0x80
	}
	return true
}

// decodeBlock checks a block's payload p against its crc and unpacks its
// len(block) events into block, as unpack does. It is the one block
// decoder, shared by the streaming Reader and Decode's workers, so both
// report a damaged block the same way.
func decodeBlock(block []Event, p []byte, crc uint32) ([]Event, error) {
	if got := crc32.ChecksumIEEE(p); got != crc {
		return nil, fmt.Errorf("trace: block crc mismatch (%#x != %#x)", got, crc)
	}
	return unpack(block, p)
}

// unpack decodes the payload p of len(block) events into block, checking
// every field an Event cannot hold.
//
// A realistic event's kind and tid take a byte each, and its time delta and
// size one or two; they are read inline. Its address delta takes one to
// five bytes, varying from event to event, so it is read from an
// eight-byte word without a branch on its length: its end is the word's
// first byte below 0x80, and its value those bytes' low seven bits,
// gathered. Any other event, and the last few bytes of a payload, go
// through unpackEvent, which reads it field by field.
func unpack(block []Event, p []byte) ([]Event, error) {
	pos := 0
	var prevTime, prevAddr uint64 // deltas reset per block
	for i := range block {
		var kind byte
		var tid, dt, da, size uint64
		ok := false
		if q := pos + 2; q+11 < len(p) && p[pos] <= maxKind && p[pos+1] < 0x80 {
			kind, tid, dt = p[pos], uint64(p[pos+1]), uint64(p[q])
			if q++; dt >= 0x80 { // a time delta of two bytes is common too
				dt, q = dt&0x7f|uint64(p[q])<<7, q+1
			}
			w := binary.LittleEndian.Uint64(p[q:])
			end := ^w & 0x8080808080808080 // the high bits of bytes that end a varint
			e := uint(bits.TrailingZeros64(end))
			q += int(e+1) / 8
			da = varintBits(w, e)
			if size = uint64(p[q]); size >= 0x80 { // and a size of two
				size, q = size&0x7f|uint64(p[q+1])<<7, q+1
			}
			if end != 0 && dt|size < 1<<14 {
				pos, ok = q+1, true
			}
		}
		if !ok {
			var err error
			if kind, tid, dt, da, size, pos, err = unpackEvent(p, pos, i); err != nil {
				return nil, err
			}
		}
		// The deltas are binary.Varint's zigzag of the unsigned value.
		prevTime += uint64(int64(dt>>1) ^ -int64(dt&1))
		prevAddr += uint64(int64(da>>1) ^ -int64(da&1))
		// Field by field: an Event literal is built on the stack and
		// copied out with a load wider than the stores that built it,
		// which stalls every event.
		e := &block[i]
		e.Kind, e.TID, e.Size = Kind(kind), uint16(tid), uint32(size)
		e.Time, e.Addr = memTime(prevTime), memAddr(prevAddr)
	}
	if pos != len(p) {
		return nil, fmt.Errorf("trace: block has %d trailing payload bytes", len(p)-pos)
	}
	return block, nil
}

// varintBits is the value of the varint that ends at bit e of w, the high
// bit of its last byte, and starts at w's first byte: the low seven bits of
// each of its bytes, packed.
func varintBits(w uint64, e uint) uint64 {
	x := w & (2<<e - 1) & 0x7f7f7f7f7f7f7f7f
	x = x&0x007f007f007f007f | x>>1&0x3f803f803f803f80
	x = x&0x00003fff00003fff | x>>2&0x0fffc0000fffc000
	return x&0x000000000fffffff | x>>4&0x00fffffff0000000
}

// unpackEvent decodes the event at p[pos:], the i-th of its block, field
// by field: its kind, tid, time and address deltas (still zigzagged) and
// size, and the position after it.
func unpackEvent(p []byte, pos, i int) (kind byte, tid, dt, da, size uint64, next int, err error) {
	if pos >= len(p) {
		return 0, 0, 0, 0, 0, 0, fmt.Errorf("trace: block event %d: payload exhausted", i)
	}
	kind = p[pos]
	pos++
	if kind > maxKind {
		return 0, 0, 0, 0, 0, 0, fmt.Errorf("trace: block event %d: invalid kind %d", i, kind)
	}
	var fields [4]uint64
	for f, name := range [4]string{"tid", "time", "addr", "size"} {
		v, n := binary.Uvarint(p[pos:])
		if n <= 0 {
			return 0, 0, 0, 0, 0, 0, fmt.Errorf("trace: block event %d: bad %s varint", i, name)
		}
		fields[f], pos = v, pos+n
	}
	tid, dt, da, size = fields[0], fields[1], fields[2], fields[3]
	if tid >= maxThreads {
		return 0, 0, 0, 0, 0, 0, fmt.Errorf("trace: block event %d: tid %d out of range (max %d)", i, tid, maxThreads-1)
	}
	if size > math.MaxUint32 {
		return 0, 0, 0, 0, 0, 0, fmt.Errorf("trace: block event %d: size %d out of range (max %d)", i, size, uint64(math.MaxUint32))
	}
	return kind, tid, dt, da, size, pos, nil
}
