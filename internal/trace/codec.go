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

// Decode reads a binary trace from r into a Trace. It shares the
// streaming Reader's framing and block decoder, so it accepts exactly the
// streams the Reader accepts and rejects the others with the error the
// Reader would give first: kind bytes outside the known range, unknown
// versions and truncated or corrupt input are never silently accepted.
//
// The blocks are independent, so Decode frames them on the caller's
// goroutine and checks and unpacks them on one worker per core, up to
// maxDecodeWorkers. Each block is framed into a payload buffer of a fixed
// ring — one per worker and one for the framer — and unpacked into that
// slot's own events, both reused from block to block. No worker outlives
// the call.
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
				s.check()
				s.done <- struct{}{}
			}
		}()
	}
	defer func() {
		close(jobs)
		wg.Wait()
	}()

	// ring[head : head+inFlight] (mod len) are framed and not yet taken,
	// oldest first. take takes the oldest once its worker is done.
	head, inFlight := 0, 0
	take := func() error {
		s := &ring[head]
		<-s.done
		head, inFlight = (head+1)%len(ring), inFlight-1
		if s.err != nil {
			return s.err
		}
		p := s.payload
		if !s.canonical {
			p = nil
		}
		t.appendChunk(s.events[:s.count], p)
		return nil
	}
	for {
		if inFlight == len(ring) {
			if err := take(); err != nil {
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
		if err := take(); err != nil {
			return nil, err
		}
	}
	if err != nil {
		return nil, err
	}
	t.sealed.trim()
	t.VolatileLoads, t.VolatileStores = rd.Volatile()
	return t, nil
}

// maxDecodeWorkers caps Decode's workers. Each one adds a slot to the
// ring, whose buffers are allocated the first time the ring reaches it, so
// the cap is what keeps Decode's allocations those of the blocks it keeps
// plus a constant, and its in-flight blocks a few, on a machine of any core
// count.
const maxDecodeWorkers = 4

// decodeSlot is one block on its way through Decode: framed into payload
// by the caller, checked and unpacked into events (or err) by a worker,
// which then signals done.
type decodeSlot struct {
	payload []byte
	crc     uint32
	count   int
	events  []Event // the slot's own, of at least count events
	// canonical is set for a full block whose payload is what pack makes
	// of its events, which Decode keeps as it is.
	canonical bool
	err       error
	done      chan struct{}
}

// check checks the slot's block against its crc and unpacks it into the
// slot's events.
func (s *decodeSlot) check() {
	if cap(s.events) < s.count {
		s.events = make([]Event, s.count)
	}
	canonical, err := decodeBlock(s.events[:s.count], s.payload, s.crc)
	s.err, s.canonical = err, err == nil && s.count == DefaultBlockEvents && canonical
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
