package whisper

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"strings"
	"testing"

	"github.com/whisper-pm/whisper/internal/hops"
	"github.com/whisper-pm/whisper/internal/mem"
	"github.com/whisper-pm/whisper/internal/trace"
)

// hostileTraces are well-formed v3 files (every CRC and count valid) that
// no recorder writes. The decoder accepts the first three, so the
// consumers are the only line of defence. The first names the highest TID,
// which every thread table keeps in its map. The second took the process
// down before the consumers shared one bounded line walk (mem.Lines called
// make with a negative capacity); the third walked 67 M lines in three of
// the four. The fourth's one event claims 2^32+8 bytes, which an Event
// cannot hold: the decoder once kept the low 32 bits and handed the
// consumers an 8-byte store, and must refuse it.
func hostileTraces(t testing.TB) []hostileTrace {
	// One transaction touching [a, a+size) with every kind of memory event.
	sff := func(tid uint16, a mem.Addr, size uint32) []byte {
		tr := &trace.Trace{App: "hostile", Layer: "native", Threads: 1}
		for _, e := range []trace.Event{
			{Time: 1, TID: tid, Kind: trace.KTxBegin},
			{Time: 2, TID: tid, Kind: trace.KStore, Addr: a, Size: size},
			{Time: 3, TID: tid, Kind: trace.KStoreNT, Addr: a, Size: size},
			{Time: 4, TID: tid, Kind: trace.KLoad, Addr: a, Size: size},
			{Time: 5, TID: tid, Kind: trace.KFlush, Addr: a, Size: size},
			{Time: 6, TID: tid, Kind: trace.KFence},
			{Time: 7, TID: tid, Kind: trace.KTxEnd},
		} {
			tr.Append(e)
		}
		var buf bytes.Buffer
		if err := trace.EncodeSource(&buf, trace.NewSliceSource(tr)); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	return []hostileTrace{
		{"top-tid", sff(0xFFFF, mem.PMBase, 8), ""},
		{"wrapping-span", sff(0, ^mem.Addr(0)-4, 64), ""},
		{"4GiB-store", sff(0, mem.PMBase, 0xFFFFFFFF), ""},
		{"huge-size", hugeSize(), "block event 0: size 4294967304 out of range"},
	}
}

// hugeSize frames by hand, since no Writer can, a v3 file holding one
// store whose size is 2^32+8.
func hugeSize() []byte {
	var ev []byte
	ev = append(ev, 0x80|byte(trace.KStore))         // head: an address follows, tid 0, kind
	ev = binary.AppendVarint(ev, 1)                  // time delta
	ev = binary.AppendVarint(ev, int64(mem.PMBase))  // addr delta
	ev = binary.AppendUvarint(ev, 1<<32+8)           // size
	b := []byte("WSPR\x03\x07hostile\x06native\x01") // magic, version, app, layer, threads
	b = append(b, 0x01, 1)                           // block tag, one event
	b = binary.AppendUvarint(b, uint64(len(ev)))
	b = append(b, ev...)
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(ev))
	counts := []byte{0, 0, 1} // volatile loads, volatile stores, events
	b = append(append(b, 0x02), counts...)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(counts))
}

type hostileTrace struct {
	name string
	data []byte
	// wantErr, when set, is what the decoder must refuse the file with.
	wantErr string
}

// analyzeHostile runs every consumer of a trace file over data — the
// epoch analysis, pmsan and cachesim on one fused pass, then the HOPS
// front and its five back ends — and holds whatever they report to the
// work a bounded walk allows: no more classified cache accesses than
// MaxEventLines per event. An error from either pass is a legal outcome;
// a panic is the failure.
func analyzeHostile(t *testing.T, data []byte) {
	rep, err := AnalyzeReaderFused(bytes.NewReader(data), FusedConfig{Sanitize: true, Cache: true})
	if err == nil {
		c := rep.Cache
		walked := c.L1Hits + c.L2Hits + c.RemoteHits + memAccesses(*c)
		if limit := rep.San.rep.Events * trace.MaxEventLines; walked > limit {
			t.Fatalf("cachesim classified %d line accesses for %d events; the walk bound allows %d",
				walked, rep.San.rep.Events, limit)
		}
	}
	rd, err := trace.NewReader(bytes.NewReader(data))
	if err != nil {
		return
	}
	norm, err := hops.NormalizedSource(rd, hops.DefaultConfig(), nil)
	if err == nil && len(norm) != len(hops.Models) {
		t.Fatalf("NormalizedSource returned %d models, want %d", len(norm), len(hops.Models))
	}
}

// TestHostileTraceFilesReportOrError pins the hand-found inputs: the
// highest TID, a span that wraps the address space, and a 4 GiB store
// each come back as a report or an error from the fused pass and the
// HOPS replay. A size past 32 bits comes back as the decoder's error from
// both.
func TestHostileTraceFilesReportOrError(t *testing.T) {
	for _, h := range hostileTraces(t) {
		t.Run(h.name, func(t *testing.T) {
			analyzeHostile(t, h.data)
			if h.wantErr == "" {
				return
			}
			_, err := AnalyzeReaderFused(bytes.NewReader(h.data), FusedConfig{Sanitize: true, Cache: true})
			if err == nil || !strings.Contains(err.Error(), h.wantErr) {
				t.Errorf("fused pass: error %v, want one containing %q", err, h.wantErr)
			}
			rd, err := trace.NewReader(bytes.NewReader(h.data))
			if err == nil {
				_, err = hops.NormalizedSource(rd, hops.DefaultConfig(), nil)
			}
			if err == nil || !strings.Contains(err.Error(), h.wantErr) {
				t.Errorf("HOPS replay: error %v, want one containing %q", err, h.wantErr)
			}
		})
	}
}

// FuzzFused throws arbitrary bytes at everything that reads a trace file.
// pmsan was the only consumer with a fuzz target (FuzzSanitizer), and the
// only one whose line walk and thread lookup survived a hostile file;
// this target covers the shared table and walk under all four, and holds
// a file of any version but v3 to failing by its version. Seeds: the
// FuzzDecode / FuzzSanitizer corpora (testdata/fuzz/FuzzFused, with a v2
// file and the escaped heads) and the four hostile files above.
func FuzzFused(f *testing.F) {
	for _, h := range hostileTraces(f) {
		f.Add(h.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4 && string(data[:4]) == "WSPR" && data[4] != 3 {
			_, err := AnalyzeReaderFused(bytes.NewReader(data), FusedConfig{Sanitize: true, Cache: true})
			if want := fmt.Sprintf("unsupported version %d", data[4]); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("a version %d file: error %v, want %q", data[4], err, want)
			}
		}
		analyzeHostile(t, data)
	})
}
