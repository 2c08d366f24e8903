package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
)

// Every binary trace starts with magic "WSPR" and a version byte; the one
// version this package reads and writes is the chunked layout described in
// stream.go. Strings are uvarint length + bytes.
const magic = "WSPR"

// Decode reads a binary trace from r into a Trace. It is the streaming
// Reader's block loop on the caller's goroutine, so it accepts exactly the
// streams the Reader accepts and rejects the others with the error the
// Reader gives first: kind bytes outside the known range, unknown versions
// and truncated or corrupt input are never silently accepted. Each block is
// read into the Reader's payload buffer and unpacked into a block that
// Decode releases back to the Reader once the trace holds its events, so a
// Writer's file of any length is unpacked into one block of events.
//
// A decoded trace is held as a recorded one is, in v3 payloads. A full
// block that arrives while the open block is empty is kept as it is when
// its payload is what pack makes of its events (unpack tells), and packed
// afresh when it is not; any other block is appended event by event, which
// re-blocks and re-packs it. A Writer's file decodes to its own payloads,
// about 4.8 bytes an event, and encodes back to its own bytes.
func Decode(r io.Reader) (*Trace, error) {
	rd, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	t := &Trace{App: rd.meta.App, Layer: rd.meta.Layer, Threads: rd.meta.Threads}
	for {
		block, canonical, err := rd.readFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		p := rd.payload
		if !canonical {
			p = nil
		}
		t.appendChunk(block, p)
		rd.Release(block)
	}
	t.sealed.trim()
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
