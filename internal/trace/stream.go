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
// An event is kind u8, tid uvarint, time delta varint, addr delta varint,
// size uvarint. Time and Addr are signed deltas from the previous event in
// the same block, which keeps realistic traces small (consecutive events
// are close in both time and space); the delta state resets at each block
// boundary, so every block is independently decodable and checkable.
// There is no up-front event count: the writer emits events as they happen
// and the aggregate volatile counters ride in the trailer, which is what
// lets a live run stream into analysis without ever materializing the
// trace. Memory on both sides is O(block), not O(trace).

const (
	version = 2

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

	// maxKind is the highest valid Kind byte; the Reader and the Writer
	// reject anything above it.
	maxKind = byte(KCrash)

	// maxThreads bounds the header thread count the Reader trusts,
	// mirroring the string-length bound in readString. The count
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
	// treat it as read-only.
	NextChunk() ([]Event, error)
	// Volatile returns the aggregate DRAM load/store counters. The
	// values are complete only after NextChunk has returned io.EOF.
	Volatile() (loads, stores uint64)
}

// SliceSource adapts an in-memory Trace to the EventSource interface.
type SliceSource struct {
	tr *Trace
	c  int // next chunk
}

// NewSliceSource returns an EventSource over tr's events.
func NewSliceSource(tr *Trace) *SliceSource { return &SliceSource{tr: tr} }

// Meta returns the trace's run metadata.
func (s *SliceSource) Meta() Meta {
	return Meta{App: s.tr.App, Layer: s.tr.Layer, Threads: s.tr.Threads}
}

// NextChunk returns the trace's stored chunks (never empty, see
// Trace.chunks) one at a time without copying, then io.EOF.
func (s *SliceSource) NextChunk() ([]Event, error) {
	if s.c >= len(s.tr.chunks) {
		return nil, io.EOF
	}
	s.c++
	return s.tr.chunks[s.c-1], nil
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

// Reader decodes a trace stream a chunk at a time, holding O(block)
// memory and verifying every block CRC and the trailer.
type Reader struct {
	br   *bufio.Reader
	meta Meta

	// payload is a reusable buffer for a block's encoded bytes, crc one for
	// its checksum (a local would escape to the heap once per block). The
	// decoded events are never reused: a chunk belongs to whoever NextChunk
	// gave it to.
	payload []byte
	crc     [4]byte

	cur []Event // what Next has yet to hand out of the last chunk

	vloads, vstores uint64
	delivered       uint64
	err             error // sticky; io.EOF once the stream has ended well
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
	rd := &Reader{br: br}
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

// NextChunk returns the next decoded block in a slice the Reader never
// touches again; io.EOF at the end of a well-formed stream, or a
// descriptive error on corruption. Either is sticky.
func (r *Reader) NextChunk() ([]Event, error) {
	if r.err != nil {
		return nil, r.err
	}
	chunk, err := r.readFrame()
	switch {
	case err != nil:
		r.err = err
	case chunk == nil: // the trailer
		r.err = io.EOF
	default:
		r.delivered += uint64(len(chunk))
		return chunk, nil
	}
	return nil, r.err
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

// readFrame reads one frame: an event block, returned decoded, or the
// trailer, which completes the stream and returns no events.
func (r *Reader) readFrame() ([]Event, error) {
	tag, err := r.br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("trace: reading frame tag: %w", noEOF(err))
	}
	switch tag {
	case tagBlock:
		return r.readBlock()
	case tagTrailer:
		return nil, r.readTrailer()
	default:
		return nil, fmt.Errorf("trace: unknown frame tag %#x", tag)
	}
}

func (r *Reader) readBlock() ([]Event, error) {
	count, err := binary.ReadUvarint(r.br)
	if err != nil {
		return nil, fmt.Errorf("trace: block count: %w", noEOF(err))
	}
	payloadLen, err := binary.ReadUvarint(r.br)
	if err != nil {
		return nil, fmt.Errorf("trace: block length: %w", noEOF(err))
	}
	// The count and length are untrusted input: bound them before any
	// allocation, and cross-check them against each other — the smallest
	// event encodes to minEventBytes, so a count the payload cannot hold
	// is a lie, reported before reading the payload at all.
	if count == 0 {
		return nil, errors.New("trace: empty block")
	}
	if count > maxBlockEvents {
		return nil, fmt.Errorf("trace: block claims %d events (max %d)", count, maxBlockEvents)
	}
	if payloadLen > maxBlockBytes {
		return nil, fmt.Errorf("trace: block claims %d payload bytes (max %d)", payloadLen, maxBlockBytes)
	}
	if count*minEventBytes > payloadLen {
		return nil, fmt.Errorf("trace: block claims %d events in %d bytes", count, payloadLen)
	}
	if uint64(cap(r.payload)) < payloadLen {
		r.payload = make([]byte, payloadLen)
	}
	r.payload = r.payload[:payloadLen]
	if _, err := io.ReadFull(r.br, r.payload); err != nil {
		return nil, fmt.Errorf("trace: block payload: %w", noEOF(err))
	}
	if _, err := io.ReadFull(r.br, r.crc[:]); err != nil {
		return nil, fmt.Errorf("trace: block crc: %w", noEOF(err))
	}
	if got, want := crc32.ChecksumIEEE(r.payload), binary.LittleEndian.Uint32(r.crc[:]); got != want {
		return nil, fmt.Errorf("trace: block crc mismatch (%#x != %#x)", got, want)
	}

	block := make([]Event, count)
	pos := 0
	var prevTime, prevAddr uint64 // deltas reset per block
	for i := uint64(0); i < count; i++ {
		if pos >= len(r.payload) {
			return nil, fmt.Errorf("trace: block event %d: payload exhausted", i)
		}
		kind := r.payload[pos]
		pos++
		if kind > maxKind {
			return nil, fmt.Errorf("trace: block event %d: invalid kind %d", i, kind)
		}
		tid, n := binary.Uvarint(r.payload[pos:])
		if n <= 0 {
			return nil, fmt.Errorf("trace: block event %d: bad tid varint", i)
		}
		pos += n
		dt, n := binary.Varint(r.payload[pos:])
		if n <= 0 {
			return nil, fmt.Errorf("trace: block event %d: bad time varint", i)
		}
		pos += n
		da, n := binary.Varint(r.payload[pos:])
		if n <= 0 {
			return nil, fmt.Errorf("trace: block event %d: bad addr varint", i)
		}
		pos += n
		size, n := binary.Uvarint(r.payload[pos:])
		if n <= 0 {
			return nil, fmt.Errorf("trace: block event %d: bad size varint", i)
		}
		pos += n
		prevTime += uint64(dt)
		prevAddr += uint64(da)
		block[i] = Event{
			Kind: Kind(kind),
			TID:  int32(tid),
			Time: memTime(prevTime),
			Addr: memAddr(prevAddr),
			Size: uint32(size),
		}
	}
	if pos != len(r.payload) {
		return nil, fmt.Errorf("trace: block has %d trailing payload bytes", len(r.payload)-pos)
	}
	return block, nil
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
