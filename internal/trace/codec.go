package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"sync"
)

// Every binary trace starts with magic "WSPR" and a version byte; the one
// version this package reads and writes is the chunked layout described in
// stream.go. Strings are uvarint length + bytes.
const magic = "WSPR"

// Decode reads a binary trace from r and materializes it. It shares the
// streaming Reader's framing and block decoder, so it accepts exactly the
// streams the Reader accepts and rejects the others with the error the
// Reader would give first: kind bytes outside the known range, unknown
// versions and truncated or corrupt input are never silently accepted.
//
// The blocks are independent, so Decode frames them on the caller's
// goroutine and checks and decodes them on one worker per core, up to
// maxDecodeWorkers. Each block is framed into a payload buffer of a fixed
// ring — one per worker and one for the framer — and adopted as the
// trace's next chunk in stream order, so storage is the events actually
// decoded, allocated once per block and never copied, plus those few
// payload buffers. No worker outlives the call.
func Decode(r io.Reader) (*Trace, error) {
	rd, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	t := &Trace{App: rd.meta.App, Layer: rd.meta.Layer, Threads: rd.meta.Threads}

	workers := min(runtime.GOMAXPROCS(0), maxDecodeWorkers)
	ring := make([]decodeSlot, workers+1)
	for i := range ring {
		ring[i].done = make(chan struct{}, 1)
	}
	// jobs has room for every slot, so handing a block over never waits.
	jobs := make(chan *decodeSlot, len(ring))
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for s := range jobs {
				s.events, s.err = decodeBlock(s.payload, s.crc, s.count)
				s.done <- struct{}{}
			}
		}()
	}
	defer func() {
		close(jobs)
		wg.Wait()
	}()

	// ring[head : head+inFlight] (mod len) are framed and not yet adopted,
	// oldest first. adopt takes the oldest once its worker is done.
	head, inFlight := 0, 0
	adopt := func() error {
		s := &ring[head]
		<-s.done
		head, inFlight = (head+1)%len(ring), inFlight-1
		if s.err != nil {
			return s.err
		}
		// No one touches a block again once it is decoded, and clipping
		// its capacity makes it full: a later Append opens a chunk of
		// its own.
		t.chunks = append(t.chunks, s.events[:len(s.events):len(s.events)])
		t.n += len(s.events)
		return nil
	}
	for {
		if inFlight == len(ring) {
			if err := adopt(); err != nil {
				return nil, err
			}
		}
		s := &ring[(head+inFlight)%len(ring)]
		s.count, s.crc, err = rd.nextFrame(&s.payload)
		if err != nil || s.count == 0 {
			break
		}
		inFlight++
		jobs <- s
	}
	// A block framed before the stream ended or failed comes before that
	// in stream order, and so does its error.
	for inFlight > 0 {
		if err := adopt(); err != nil {
			return nil, err
		}
	}
	if err != nil {
		return nil, err
	}
	t.VolatileLoads, t.VolatileStores = rd.Volatile()
	return t, nil
}

// maxDecodeWorkers caps Decode's workers. Each one adds a payload buffer
// to the ring, allocated the first time the ring reaches it, so the cap is
// what keeps Decode's allocations one per block plus a constant, and its
// in-flight payloads a few blocks' worth, on a machine of any core count.
const maxDecodeWorkers = 4

// decodeSlot is one block on its way through Decode: framed into payload
// by the caller, decoded into events (or err) by a worker, which then
// signals done.
type decodeSlot struct {
	payload []byte
	crc     uint32
	count   int
	events  []Event
	err     error
	done    chan struct{}
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
