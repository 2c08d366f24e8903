package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
)

// Binary trace format, version 1 (read-only: the repo writes version 2,
// see stream.go; files in this layout keep decoding through Reader):
//
//	magic "WSPR" | version u8
//	app string | layer string | threads uvarint
//	vloads uvarint | vstores uvarint
//	count uvarint
//	count * event
//
// Events are delta-encoded: Time and Addr are stored as signed deltas from
// the previous event, which keeps realistic traces small (most consecutive
// events are close in both time and space). Strings are uvarint length +
// bytes.

const (
	magic   = "WSPR"
	version = 1
)

// EncodeV1 writes t to w in the version 1 layout. It exists for the
// compatibility tests and the codec benchmark's v1 column, which need v1
// bytes to feed the Reader; nothing outside tests calls it.
func EncodeV1(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magic); err != nil {
		return err
	}
	if err := bw.WriteByte(version); err != nil {
		return err
	}
	writeString(bw, t.App)
	writeString(bw, t.Layer)
	writeUvarint(bw, uint64(t.Threads))
	writeUvarint(bw, t.VolatileLoads)
	writeUvarint(bw, t.VolatileStores)
	writeUvarint(bw, uint64(t.n))
	var prevTime, prevAddr uint64
	for _, c := range t.chunks {
		for _, e := range c {
			if err := bw.WriteByte(byte(e.Kind)); err != nil {
				return err
			}
			writeUvarint(bw, uint64(e.TID))
			writeVarint(bw, int64(uint64(e.Time)-prevTime))
			writeVarint(bw, int64(uint64(e.Addr)-prevAddr))
			writeUvarint(bw, uint64(e.Size))
			prevTime = uint64(e.Time)
			prevAddr = uint64(e.Addr)
		}
	}
	return bw.Flush()
}

// Decode reads a trace in either binary format (the sequential v1 layout
// or the chunked v2 layout) from r and materializes it. The decoder is a
// thin loop over Reader, so both versions share one validation path:
// kind bytes outside the known range and truncated or corrupt input are
// rejected, never silently accepted. The v1 header's event count is
// attacker-controlled and sizes nothing here: storage grows only with
// events actually decoded.
func Decode(r io.Reader) (*Trace, error) {
	rd, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	t := &Trace{App: rd.meta.App, Layer: rd.meta.Layer, Threads: rd.meta.Threads}
	for {
		chunk, err := rd.NextChunk()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		for _, e := range chunk {
			t.Append(e)
		}
	}
	t.VolatileLoads, t.VolatileStores = rd.Volatile()
	return t, nil
}

func writeString(w *bufio.Writer, s string) {
	writeUvarint(w, uint64(len(s)))
	w.WriteString(s)
}

func readString(r *bufio.Reader) (string, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return "", err
	}
	if n > 1<<20 {
		return "", errors.New("trace: unreasonable string length")
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

func writeUvarint(w *bufio.Writer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	w.Write(buf[:n])
}

func writeVarint(w *bufio.Writer, v int64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutVarint(buf[:], v)
	w.Write(buf[:n])
}
