package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// Chunked binary trace format (version 3):
//
//	magic "WSPR" | version u8 = 3
//	app string | layer string | threads uvarint
//	zero or more blocks, each:
//	    tag u8 = 0x01
//	    count uvarint           events in this block (>= 1)
//	    payloadLen uvarint      encoded event bytes that follow
//	    payload                 count delta-encoded events
//	    crc u32 LE              IEEE CRC-32 of payload
//	trailer (required, ends the stream):
//	    tag u8 = 0x02
//	    vloads uvarint | vstores uvarint | total uvarint
//	    crc u32 LE              IEEE CRC-32 of the three varints above
//
// An event is a head byte holding its kind, a TID of 0 to 7 and whether an
// address follows, a uvarint TID only when it is 8 or more, a time delta
// varint, an address delta varint only when Addr is not 0, and a size
// uvarint (pack.go). Time and Addr are signed deltas from the previous
// event in the same block that has one, which keeps realistic traces small
// (consecutive events are close in both time and space); the delta state
// resets at each block boundary, so every block is independently
// decodable and checkable. There is no up-front event count: the writer
// emits events as they happen and the aggregate volatile counters ride in
// the trailer, which is what lets a live run stream into analysis without
// ever materializing the trace. Memory on both sides is O(block), not
// O(trace). Versions 1 and 2 are no longer read.

const (
	version = 3

	tagBlock   = 0x01
	tagTrailer = 0x02

	// DefaultBlockEvents is the number of events the Writer frames per
	// block: big enough to amortize the frame header and CRC, small
	// enough that a block (< ~150 KiB encoded) stays cache-friendly.
	DefaultBlockEvents = 4096

	// maxBlockEvents / maxBlockBytes bound what the Reader will trust
	// from a block header before decoding it. The Writer stays far under
	// both; a corrupt or adversarial frame that claims more must error
	// without a large allocation.
	maxBlockEvents = 1 << 17
	maxBlockBytes  = 1 << 23

	// minEventBytes is the smallest possible encoded event (a head, a time
	// delta and a size of a byte each); a block claiming more events than
	// payloadLen/minEventBytes is lying about its count.
	minEventBytes = 3

	// maxKind is the highest valid Kind byte; the Reader and the Writer
	// reject anything above it.
	maxKind = byte(KCrash)

	// maxThreads bounds the header thread count the Reader trusts,
	// mirroring the string-length bound in readString: it is the number
	// of TIDs an Event can name, 0 through 0xFFFF. The count is
	// attacker-controlled input that downstream consumers use to size
	// per-thread state, and the raw uvarint cast to int would go negative
	// for values >= 2^63 on 64-bit platforms. The suite runs at most 8
	// client threads, and a recorded service one per shard.
	maxThreads = 1 << 16
)

// Meta identifies the run a trace stream came from.
type Meta struct {
	App     string
	Layer   string
	Threads int
}

// EventSource is the streaming view of a trace: run metadata up front,
// events in recorded order a chunk at a time, aggregate volatile counters
// once the stream is exhausted. It is the input of the epoch analysis
// (internal/epoch.AnalyzeStream), the sanitizer and the streaming cache
// and HOPS replays; *Reader, *SliceSource, *Branch and *Tail implement it.
type EventSource interface {
	// Meta returns the stream's run metadata.
	Meta() Meta
	// NextChunk returns the next batch of events in recorded order — at
	// least one — or io.EOF after the last. Any other error means the
	// stream is corrupt or truncated. Ownership of the returned slice
	// transfers to the caller: the source must never reuse or mutate it
	// (consumers may share it across goroutines), and the caller must
	// treat it as read-only. A Fanout Branch is the one exception: its
	// chunk is valid until the branch's next NextChunk or Close, after
	// which the Fanout, the only caller of Release, may hand it back to a
	// source that writes later chunks there (a Tail, a Reader, a
	// SliceSource).
	NextChunk() ([]Event, error)
	// Volatile returns the aggregate DRAM load/store counters. The
	// values are complete only after NextChunk has returned io.EOF.
	Volatile() (loads, stores uint64)
}

// SliceSource adapts an in-memory Trace to the EventSource interface. It
// unpacks each sealed block into a chunk of its own, and hands over a copy
// of the open block last, so its chunks pass to the caller like any
// source's while the trace stays packed. A chunk released to it (a Fanout
// does) is where a later block is unpacked.
type SliceSource struct {
	tr *Trace
	b  int // next block: sealed, then the open one
	blockPool
}

// NewSliceSource returns an EventSource over tr's events. A trace whose
// events were recorded (of known kinds) or decoded reads without error.
func NewSliceSource(tr *Trace) *SliceSource {
	return &SliceSource{tr: tr, blockPool: newBlockPool(poolDepth)}
}

// Meta returns the trace's run metadata.
func (s *SliceSource) Meta() Meta {
	return Meta{App: s.tr.App, Layer: s.tr.Layer, Threads: s.tr.Threads}
}

// NextChunk returns the trace's next block, unpacked, then io.EOF.
func (s *SliceSource) NextChunk() ([]Event, error) {
	sealed := s.tr.sealed.blocks
	switch b := s.b; {
	case b < len(sealed):
		s.b++
		c := s.block(DefaultBlockEvents)
		if _, err := unpack(c, sealed[b]); err != nil {
			return nil, err
		}
		return c, nil
	case b == len(sealed) && len(s.tr.open) > 0:
		s.b++
		return slices.Clone(s.tr.open), nil
	}
	return nil, io.EOF
}

// Volatile returns the trace's aggregate DRAM counters.
func (s *SliceSource) Volatile() (uint64, uint64) {
	return s.tr.VolatileLoads, s.tr.VolatileStores
}

// --- Writer --------------------------------------------------------------

// Writer encodes an event stream in the chunked v3 format. Events are
// buffered into blocks of DefaultBlockEvents, each packed and framed as
// it fills; Close writes the trailer. A Writer holds O(block) memory
// regardless of trace length.
type Writer struct {
	bw      *bufio.Writer
	block   []Event
	payload []byte
	total   uint64
	closed  bool
}

// NewWriter writes the v3 stream header for m to w and returns a Writer
// ready to receive events.
func NewWriter(w io.Writer, m Meta) (*Writer, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magic); err != nil {
		return nil, err
	}
	if err := bw.WriteByte(version); err != nil {
		return nil, err
	}
	writeString(bw, m.App)
	writeString(bw, m.Layer)
	writeUvarint(bw, uint64(m.Threads))
	if err := bw.Flush(); err != nil {
		return nil, err
	}
	return &Writer{bw: bw}, nil
}

// Write appends one event to the stream, framing a block when the
// current one fills.
func (w *Writer) Write(e Event) error {
	if w.closed {
		return errors.New("trace: Write on closed Writer")
	}
	if byte(e.Kind) > maxKind {
		return fmt.Errorf("trace: invalid kind %d", e.Kind)
	}
	if w.block == nil {
		w.block = make([]Event, 0, DefaultBlockEvents)
	}
	w.block = append(w.block, e)
	if len(w.block) == DefaultBlockEvents {
		return w.flushBlock()
	}
	return nil
}

// flushBlock packs and frames the buffered events, if any.
func (w *Writer) flushBlock() error {
	if len(w.block) == 0 {
		return nil
	}
	w.payload = pack(w.payload[:0], w.block)
	err := w.writeBlock(w.payload, len(w.block))
	w.block = w.block[:0]
	return err
}

// writeBlock frames the packed payload of count events.
func (w *Writer) writeBlock(payload []byte, count int) error {
	if err := w.bw.WriteByte(tagBlock); err != nil {
		return err
	}
	writeUvarint(w.bw, uint64(count))
	writeUvarint(w.bw, uint64(len(payload)))
	if _, err := w.bw.Write(payload); err != nil {
		return err
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload))
	if _, err := w.bw.Write(crc[:]); err != nil {
		return err
	}
	w.total += uint64(count)
	return nil
}

// Close flushes the final block and writes the trailer carrying the
// aggregate volatile counters. The Writer is unusable afterwards.
func (w *Writer) Close(vloads, vstores uint64) error {
	if w.closed {
		return errors.New("trace: Close on closed Writer")
	}
	if err := w.flushBlock(); err != nil {
		return err
	}
	w.closed = true
	if err := w.bw.WriteByte(tagTrailer); err != nil {
		return err
	}
	var tb []byte
	tb = binary.AppendUvarint(tb, vloads)
	tb = binary.AppendUvarint(tb, vstores)
	tb = binary.AppendUvarint(tb, w.total)
	if _, err := w.bw.Write(tb); err != nil {
		return err
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(tb))
	if _, err := w.bw.Write(crc[:]); err != nil {
		return err
	}
	return w.bw.Flush()
}

// Encode writes t in the chunked v3 format: the bytes a Writer makes of
// its events. Its sealed blocks, recorded or decoded, are already the
// Writer's payloads and are written as they are; only the open block is
// packed here.
func (t *Trace) Encode(w io.Writer) error {
	tw, err := NewWriter(w, Meta{App: t.App, Layer: t.Layer, Threads: t.Threads})
	if err != nil {
		return err
	}
	for _, p := range t.sealed.blocks {
		if err := tw.writeBlock(p, DefaultBlockEvents); err != nil {
			return err
		}
	}
	for _, e := range t.open {
		if err := tw.Write(e); err != nil {
			return err
		}
	}
	return tw.Close(t.VolatileLoads, t.VolatileStores)
}

// EncodeV2 drains src to w in the chunked format, v3 since the head-byte
// codec (the name is from v2's day): a live run through its Fanout branch.
// A retained trace encodes faster with Trace.Encode, to the same bytes.
func EncodeV2(w io.Writer, src EventSource) error {
	tw, err := NewWriter(w, src.Meta())
	if err != nil {
		return err
	}
	return encodeEvents(tw, src)
}

// encodeEvents writes src's events to tw, then its trailer.
func encodeEvents(tw *Writer, src EventSource) error {
	for {
		chunk, err := src.NextChunk()
		if err == io.EOF {
			return tw.Close(src.Volatile())
		}
		if err != nil {
			return err
		}
		for _, e := range chunk {
			if err := tw.Write(e); err != nil {
				return err
			}
		}
	}
}

// --- Reader --------------------------------------------------------------

// Reader decodes a trace stream a chunk at a time, holding O(block)
// memory and verifying every block CRC and the trailer.
type Reader struct {
	br   *bufio.Reader
	meta Meta

	// payload is a reusable buffer for a block's encoded bytes, crc one for
	// its checksum (a local would escape to the heap once per block). A
	// chunk belongs to whoever NextChunk gave it to: a block is decoded
	// into one only once it is released (a Fanout does; so does Decode).
	payload []byte
	crc     [4]byte
	blockPool

	cur []Event // what Next has yet to hand out of the last chunk

	vloads, vstores uint64
	// framed counts the events of every block read so far; the trailer's
	// total must equal it. A block that fails to decode ends the stream,
	// so at the trailer they have all been delivered.
	framed uint64
	err    error // sticky; io.EOF once the stream has ended well
}

// NewReader parses the stream header from r and returns a Reader
// positioned at the first event.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(head) != magic {
		return nil, errors.New("trace: bad magic")
	}
	ver, err := br.ReadByte()
	if err != nil {
		return nil, err
	}
	if ver != version {
		return nil, fmt.Errorf("trace: unsupported version %d", ver)
	}
	rd := &Reader{br: br, blockPool: newBlockPool(poolDepth)}
	if rd.meta.App, err = readString(br); err != nil {
		return nil, err
	}
	if rd.meta.Layer, err = readString(br); err != nil {
		return nil, err
	}
	threads, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if threads > maxThreads {
		return nil, fmt.Errorf("trace: unreasonable thread count %d (max %d)", threads, maxThreads)
	}
	rd.meta.Threads = int(threads)
	return rd, nil
}

// Meta returns the stream's run metadata.
func (r *Reader) Meta() Meta { return r.meta }

// Volatile returns the aggregate DRAM counters. They arrive in the
// trailer, so they are complete only after NextChunk or Next has returned
// io.EOF.
func (r *Reader) Volatile() (uint64, uint64) { return r.vloads, r.vstores }

// NextChunk returns the next decoded block in a slice the Reader touches
// again only once it is released; io.EOF at the end of a well-formed
// stream, or a descriptive error on corruption. Either is sticky.
func (r *Reader) NextChunk() ([]Event, error) {
	if r.err != nil {
		return nil, r.err
	}
	chunk, _, err := r.readFrame()
	if err != nil {
		r.err = err
		return nil, err
	}
	return chunk, nil
}

// Next returns the next event, io.EOF at the end of a well-formed stream,
// or a descriptive error on corruption. It is NextChunk handed out one
// event at a time, for callers that stop early; use one or the other on a
// given Reader, not both.
func (r *Reader) Next() (Event, error) {
	if len(r.cur) == 0 {
		chunk, err := r.NextChunk()
		if err != nil {
			return Event{}, err
		}
		r.cur = chunk
	}
	e := r.cur[0]
	r.cur = r.cur[1:]
	return e, nil
}

// readFrame reads one frame. An event block it reads into r.payload,
// checks against its crc and unpacks into a block of the pool, and returns
// with whether the payload is what pack makes of its events; the trailer
// it reads and checks against the events framed so far, and returns
// io.EOF. It is the one block path, NextChunk's and Decode's.
func (r *Reader) readFrame() (block []Event, canonical bool, err error) {
	tag, err := r.br.ReadByte()
	if err != nil {
		return nil, false, fmt.Errorf("trace: reading frame tag: %w", noEOF(err))
	}
	switch tag {
	case tagBlock:
		count, crc, err := r.readBlock()
		if err != nil {
			return nil, false, err
		}
		if got := crc32.ChecksumIEEE(r.payload); got != crc {
			return nil, false, fmt.Errorf("trace: block crc mismatch (%#x != %#x)", got, crc)
		}
		block = r.block(count)
		if canonical, err = unpack(block, r.payload); err != nil {
			return nil, false, err
		}
		return block, canonical, nil
	case tagTrailer:
		if err := r.readTrailer(); err != nil {
			return nil, false, err
		}
		return nil, false, io.EOF
	default:
		return nil, false, fmt.Errorf("trace: unknown frame tag %#x", tag)
	}
}

// readBlock reads a block's framing: its header, bounded before anything
// is allocated, its payload into r.payload and its crc.
func (r *Reader) readBlock() (int, uint32, error) {
	count, err := binary.ReadUvarint(r.br)
	if err != nil {
		return 0, 0, fmt.Errorf("trace: block count: %w", noEOF(err))
	}
	payloadLen, err := binary.ReadUvarint(r.br)
	if err != nil {
		return 0, 0, fmt.Errorf("trace: block length: %w", noEOF(err))
	}
	// The count and length are untrusted input: bound them before any
	// allocation, and cross-check them against each other — the smallest
	// event encodes to minEventBytes, so a count the payload cannot hold
	// is a lie, reported before reading the payload at all.
	if count == 0 {
		return 0, 0, errors.New("trace: empty block")
	}
	if count > maxBlockEvents {
		return 0, 0, fmt.Errorf("trace: block claims %d events (max %d)", count, maxBlockEvents)
	}
	if payloadLen > maxBlockBytes {
		return 0, 0, fmt.Errorf("trace: block claims %d payload bytes (max %d)", payloadLen, maxBlockBytes)
	}
	if count*minEventBytes > payloadLen {
		return 0, 0, fmt.Errorf("trace: block claims %d events in %d bytes", count, payloadLen)
	}
	if uint64(cap(r.payload)) < payloadLen {
		r.payload = make([]byte, payloadLen)
	}
	r.payload = r.payload[:payloadLen]
	if _, err := io.ReadFull(r.br, r.payload); err != nil {
		return 0, 0, fmt.Errorf("trace: block payload: %w", noEOF(err))
	}
	if _, err := io.ReadFull(r.br, r.crc[:]); err != nil {
		return 0, 0, fmt.Errorf("trace: block crc: %w", noEOF(err))
	}
	r.framed += count
	return int(count), binary.LittleEndian.Uint32(r.crc[:]), nil
}

func (r *Reader) readTrailer() error {
	rec := recordingByteReader{br: r.br}
	vloads, err := binary.ReadUvarint(&rec)
	if err != nil {
		return fmt.Errorf("trace: trailer vloads: %w", noEOF(err))
	}
	vstores, err := binary.ReadUvarint(&rec)
	if err != nil {
		return fmt.Errorf("trace: trailer vstores: %w", noEOF(err))
	}
	total, err := binary.ReadUvarint(&rec)
	if err != nil {
		return fmt.Errorf("trace: trailer total: %w", noEOF(err))
	}
	var crcb [4]byte
	if _, err := io.ReadFull(r.br, crcb[:]); err != nil {
		return fmt.Errorf("trace: trailer crc: %w", noEOF(err))
	}
	if got, want := crc32.ChecksumIEEE(rec.buf), binary.LittleEndian.Uint32(crcb[:]); got != want {
		return fmt.Errorf("trace: trailer crc mismatch (%#x != %#x)", got, want)
	}
	if total != r.framed {
		return fmt.Errorf("trace: trailer claims %d events, stream carried %d", total, r.framed)
	}
	r.vloads, r.vstores = vloads, vstores
	return nil
}

// recordingByteReader lets the trailer CRC cover varints without knowing
// their widths up front.
type recordingByteReader struct {
	br  *bufio.Reader
	buf []byte
}

func (r *recordingByteReader) ReadByte() (byte, error) {
	b, err := r.br.ReadByte()
	if err == nil {
		r.buf = append(r.buf, b)
	}
	return b, err
}

// noEOF maps io.EOF to io.ErrUnexpectedEOF: inside an event, block or
// trailer a clean EOF still means the stream was cut short.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
