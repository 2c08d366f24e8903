package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Chunked binary trace format (version 2):
//
//	magic "WSPR" | version u8 = 2
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
// Events inside a block use the same per-event encoding as version 1
// (kind u8, tid uvarint, time delta varint, addr delta varint, size
// uvarint) but the time/addr delta state RESETS at each block boundary,
// so every block is independently decodable and checkable. Unlike
// version 1 there is no up-front event count: the writer emits events as
// they happen and the aggregate volatile counters ride in the trailer,
// which is what lets a live run stream into analysis without ever
// materializing the trace. Memory on both sides is O(block), not
// O(trace).

const (
	version2 = 2

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

	// minEventBytes is the smallest possible encoded event (one byte per
	// field); a block claiming more events than payloadLen/minEventBytes
	// is lying about its count.
	minEventBytes = 5

	// maxKind is the highest valid Kind byte; both codec versions reject
	// anything above it.
	maxKind = byte(KCrash)

	// maxThreads bounds the header thread count trusted from either codec
	// version, mirroring the string-length bound in readString. The count
	// is attacker-controlled input that downstream consumers use to size
	// per-thread state (dense per-TID tables), and
	// the raw uvarint cast to int would go negative for values >= 2^63 on
	// 64-bit platforms. Honest traces stay far below: the suite runs at
	// most 8 client threads and the sharded service a few thousand.
	maxThreads = 1 << 20
)

// Meta identifies the run a trace stream came from.
type Meta struct {
	App     string
	Layer   string
	Threads int
}

// EventSource is the streaming view of a trace: run metadata up front,
// events in recorded order, aggregate volatile counters once the stream
// is exhausted. It is the input of the epoch analysis
// (internal/epoch.AnalyzeStream) and of the streaming cache and HOPS
// replays; *Reader, *SliceSource and *Branch implement it.
type EventSource interface {
	// Meta returns the stream's run metadata.
	Meta() Meta
	// Next returns the next event in recorded order, or io.EOF after the
	// last one. Any other error means the stream is corrupt or truncated.
	Next() (Event, error)
	// Volatile returns the aggregate DRAM load/store counters. The
	// values are complete only after Next has returned io.EOF.
	Volatile() (loads, stores uint64)
}

// ChunkSource is an optional EventSource extension for sources that can
// hand out events in batches, sparing consumers one interface call per
// event. NextChunk returns at least one event or an error (io.EOF at
// end). Ownership of the returned slice transfers to the caller: the
// source must never reuse or mutate it (consumers may share it across
// goroutines), and the caller must treat it as read-only. A consumer
// must use either Next or NextChunk, exclusively, for the life of the
// stream.
type ChunkSource interface {
	EventSource
	NextChunk() ([]Event, error)
}

// SliceSource adapts an in-memory Trace to the EventSource interface.
type SliceSource struct {
	tr *Trace
	c  int // current chunk
	i  int // next event within it
}

// NewSliceSource returns an EventSource over tr's events.
func NewSliceSource(tr *Trace) *SliceSource { return &SliceSource{tr: tr} }

// Meta returns the trace's run metadata.
func (s *SliceSource) Meta() Meta {
	return Meta{App: s.tr.App, Layer: s.tr.Layer, Threads: s.tr.Threads}
}

// Next returns the next event, or io.EOF past the end.
func (s *SliceSource) Next() (Event, error) {
	for s.c < len(s.tr.chunks) {
		if c := s.tr.chunks[s.c]; s.i < len(c) {
			e := c[s.i]
			s.i++
			return e, nil
		}
		s.c++
		s.i = 0
	}
	return Event{}, io.EOF
}

// NextChunk returns the trace's stored chunks one at a time, then io.EOF.
// It implements ChunkSource without copying.
func (s *SliceSource) NextChunk() ([]Event, error) {
	for s.c < len(s.tr.chunks) {
		c := s.tr.chunks[s.c][s.i:]
		s.c++
		s.i = 0
		if len(c) > 0 {
			return c, nil
		}
	}
	return nil, io.EOF
}

// Volatile returns the trace's aggregate DRAM counters.
func (s *SliceSource) Volatile() (uint64, uint64) {
	return s.tr.VolatileLoads, s.tr.VolatileStores
}

// --- Writer --------------------------------------------------------------

// Writer encodes an event stream in the chunked v2 format. Events are
// buffered into framed blocks of DefaultBlockEvents and flushed as each
// block fills; Close writes the trailer. A Writer holds O(block) memory
// regardless of trace length.
type Writer struct {
	bw      *bufio.Writer
	payload []byte
	count   int
	total   uint64
	closed  bool

	prevTime, prevAddr uint64
}

// NewWriter writes the v2 stream header for m to w and returns a Writer
// ready to receive events.
func NewWriter(w io.Writer, m Meta) (*Writer, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magic); err != nil {
		return nil, err
	}
	if err := bw.WriteByte(version2); err != nil {
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
	w.payload = append(w.payload, byte(e.Kind))
	w.payload = binary.AppendUvarint(w.payload, uint64(e.TID))
	w.payload = binary.AppendVarint(w.payload, int64(uint64(e.Time)-w.prevTime))
	w.payload = binary.AppendVarint(w.payload, int64(uint64(e.Addr)-w.prevAddr))
	w.payload = binary.AppendUvarint(w.payload, uint64(e.Size))
	w.prevTime = uint64(e.Time)
	w.prevAddr = uint64(e.Addr)
	w.count++
	w.total++
	if w.count >= DefaultBlockEvents {
		return w.flushBlock()
	}
	return nil
}

// flushBlock frames and writes the buffered events, if any.
func (w *Writer) flushBlock() error {
	if w.count == 0 {
		return nil
	}
	if err := w.bw.WriteByte(tagBlock); err != nil {
		return err
	}
	writeUvarint(w.bw, uint64(w.count))
	writeUvarint(w.bw, uint64(len(w.payload)))
	if _, err := w.bw.Write(w.payload); err != nil {
		return err
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(w.payload))
	if _, err := w.bw.Write(crc[:]); err != nil {
		return err
	}
	w.payload = w.payload[:0]
	w.count = 0
	// Deltas reset per block so each block is self-contained.
	w.prevTime, w.prevAddr = 0, 0
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

// EncodeV2 writes t to w in the chunked v2 format.
func EncodeV2(w io.Writer, t *Trace) error {
	tw, err := NewWriter(w, Meta{App: t.App, Layer: t.Layer, Threads: t.Threads})
	if err != nil {
		return err
	}
	for _, c := range t.chunks {
		for _, e := range c {
			if err := tw.Write(e); err != nil {
				return err
			}
		}
	}
	return tw.Close(t.VolatileLoads, t.VolatileStores)
}

// --- Reader --------------------------------------------------------------

// Reader decodes a trace stream event by event, holding O(block) memory.
// It reads both codec versions: the sequential v1 format and the framed
// v2 format (verifying every block CRC and the trailer).
type Reader struct {
	br   *bufio.Reader
	ver  byte
	meta Meta

	// v1: events remaining; volatile counters live in the header.
	remaining uint64

	// v2: decoded current block and reusable payload buffer.
	block   []Event
	pos     int
	payload []byte

	vloads, vstores uint64
	delivered       uint64
	done            bool
	err             error

	prevTime, prevAddr uint64
}

// NewReader parses the stream header from r (either codec version) and
// returns a Reader positioned at the first event.
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
	if ver != version && ver != version2 {
		return nil, fmt.Errorf("trace: unsupported version %d", ver)
	}
	rd := &Reader{br: br, ver: ver}
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
	if ver == version {
		if rd.vloads, err = binary.ReadUvarint(br); err != nil {
			return nil, err
		}
		if rd.vstores, err = binary.ReadUvarint(br); err != nil {
			return nil, err
		}
		if rd.remaining, err = binary.ReadUvarint(br); err != nil {
			return nil, err
		}
	}
	return rd, nil
}

// Meta returns the stream's run metadata.
func (r *Reader) Meta() Meta { return r.meta }

// Version returns the codec version being read (1 or 2).
func (r *Reader) Version() int { return int(r.ver) }

// Volatile returns the aggregate DRAM counters. For v1 streams they are
// available immediately; for v2 they arrive in the trailer, so they are
// complete only after Next has returned io.EOF.
func (r *Reader) Volatile() (uint64, uint64) { return r.vloads, r.vstores }

// Next returns the next event, io.EOF at the end of a well-formed
// stream, or a descriptive error on corruption. Errors are sticky.
func (r *Reader) Next() (Event, error) {
	if r.err != nil {
		return Event{}, r.err
	}
	if r.done {
		return Event{}, io.EOF
	}
	var e Event
	var err error
	if r.ver == version {
		e, err = r.nextV1()
	} else {
		e, err = r.nextV2()
	}
	if err != nil {
		if err == io.EOF {
			r.done = true
		} else {
			r.err = err
		}
		return Event{}, err
	}
	r.delivered++
	return e, nil
}

func (r *Reader) nextV1() (Event, error) {
	if r.remaining == 0 {
		return Event{}, io.EOF
	}
	kind, err := r.br.ReadByte()
	if err != nil {
		return Event{}, fmt.Errorf("trace: event %d: %w", r.delivered, noEOF(err))
	}
	if kind > maxKind {
		return Event{}, fmt.Errorf("trace: event %d: invalid kind %d", r.delivered, kind)
	}
	tid, err := binary.ReadUvarint(r.br)
	if err != nil {
		return Event{}, noEOF(err)
	}
	dt, err := binary.ReadVarint(r.br)
	if err != nil {
		return Event{}, noEOF(err)
	}
	da, err := binary.ReadVarint(r.br)
	if err != nil {
		return Event{}, noEOF(err)
	}
	size, err := binary.ReadUvarint(r.br)
	if err != nil {
		return Event{}, noEOF(err)
	}
	r.remaining--
	r.prevTime += uint64(dt)
	r.prevAddr += uint64(da)
	return Event{
		Kind: Kind(kind),
		TID:  int32(tid),
		Time: memTime(r.prevTime),
		Addr: memAddr(r.prevAddr),
		Size: uint32(size),
	}, nil
}

func (r *Reader) nextV2() (Event, error) {
	for r.pos >= len(r.block) {
		if err := r.readFrame(); err != nil {
			return Event{}, err
		}
		if r.done {
			return Event{}, io.EOF
		}
	}
	e := r.block[r.pos]
	r.pos++
	return e, nil
}

// readFrame reads one v2 frame: an event block (decoded into r.block) or
// the trailer (which completes the stream).
func (r *Reader) readFrame() error {
	tag, err := r.br.ReadByte()
	if err != nil {
		return fmt.Errorf("trace: reading frame tag: %w", noEOF(err))
	}
	switch tag {
	case tagBlock:
		return r.readBlock()
	case tagTrailer:
		return r.readTrailer()
	default:
		return fmt.Errorf("trace: unknown frame tag %#x", tag)
	}
}

func (r *Reader) readBlock() error {
	count, err := binary.ReadUvarint(r.br)
	if err != nil {
		return fmt.Errorf("trace: block count: %w", noEOF(err))
	}
	payloadLen, err := binary.ReadUvarint(r.br)
	if err != nil {
		return fmt.Errorf("trace: block length: %w", noEOF(err))
	}
	// The count and length are untrusted input: bound them before any
	// allocation, and cross-check them against each other — the smallest
	// event encodes to minEventBytes, so a count the payload cannot hold
	// is a lie, reported before reading the payload at all.
	if count == 0 {
		return errors.New("trace: empty block")
	}
	if count > maxBlockEvents {
		return fmt.Errorf("trace: block claims %d events (max %d)", count, maxBlockEvents)
	}
	if payloadLen > maxBlockBytes {
		return fmt.Errorf("trace: block claims %d payload bytes (max %d)", payloadLen, maxBlockBytes)
	}
	if count*minEventBytes > payloadLen {
		return fmt.Errorf("trace: block claims %d events in %d bytes", count, payloadLen)
	}
	if uint64(cap(r.payload)) < payloadLen {
		r.payload = make([]byte, payloadLen)
	}
	r.payload = r.payload[:payloadLen]
	if _, err := io.ReadFull(r.br, r.payload); err != nil {
		return fmt.Errorf("trace: block payload: %w", noEOF(err))
	}
	var crcb [4]byte
	if _, err := io.ReadFull(r.br, crcb[:]); err != nil {
		return fmt.Errorf("trace: block crc: %w", noEOF(err))
	}
	if got, want := crc32.ChecksumIEEE(r.payload), binary.LittleEndian.Uint32(crcb[:]); got != want {
		return fmt.Errorf("trace: block crc mismatch (%#x != %#x)", got, want)
	}

	if uint64(cap(r.block)) < count {
		r.block = make([]Event, count)
	}
	r.block = r.block[:count]
	r.pos = 0
	pos := 0
	var prevTime, prevAddr uint64 // deltas reset per block
	for i := uint64(0); i < count; i++ {
		if pos >= len(r.payload) {
			return fmt.Errorf("trace: block event %d: payload exhausted", i)
		}
		kind := r.payload[pos]
		pos++
		if kind > maxKind {
			return fmt.Errorf("trace: block event %d: invalid kind %d", i, kind)
		}
		tid, n := binary.Uvarint(r.payload[pos:])
		if n <= 0 {
			return fmt.Errorf("trace: block event %d: bad tid varint", i)
		}
		pos += n
		dt, n := binary.Varint(r.payload[pos:])
		if n <= 0 {
			return fmt.Errorf("trace: block event %d: bad time varint", i)
		}
		pos += n
		da, n := binary.Varint(r.payload[pos:])
		if n <= 0 {
			return fmt.Errorf("trace: block event %d: bad addr varint", i)
		}
		pos += n
		size, n := binary.Uvarint(r.payload[pos:])
		if n <= 0 {
			return fmt.Errorf("trace: block event %d: bad size varint", i)
		}
		pos += n
		prevTime += uint64(dt)
		prevAddr += uint64(da)
		r.block[i] = Event{
			Kind: Kind(kind),
			TID:  int32(tid),
			Time: memTime(prevTime),
			Addr: memAddr(prevAddr),
			Size: uint32(size),
		}
	}
	if pos != len(r.payload) {
		return fmt.Errorf("trace: block has %d trailing payload bytes", len(r.payload)-pos)
	}
	return nil
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
	if total != r.delivered {
		return fmt.Errorf("trace: trailer claims %d events, stream carried %d", total, r.delivered)
	}
	r.vloads, r.vstores = vloads, vstores
	r.done = true
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
