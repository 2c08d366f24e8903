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

// Decode reads a binary trace from r and materializes it. The decoder is a
// thin loop over Reader, so it shares the Reader's validation: kind bytes
// outside the known range, unknown versions and truncated or corrupt input
// are rejected, never silently accepted. Storage grows only with events
// actually decoded.
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
