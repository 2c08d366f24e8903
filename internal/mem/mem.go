// Package mem provides the basic memory vocabulary shared by every layer of
// the WHISPER reproduction: byte addresses, 64-byte cache-line arithmetic,
// the simulated global clock, and the latency configuration used by the
// timing models.
//
// All simulated components agree on a single flat physical address space.
// By convention (mirroring the paper's methodology, which reserves a range
// of physical memory as PM) addresses below PMBase are volatile DRAM and
// addresses at or above PMBase are persistent memory.
package mem

import (
	"fmt"
	"slices"
)

// LineSize is the cache-line granularity used throughout the paper: epochs
// are measured in unique 64 B lines, flushes operate on lines, and the
// persist buffers track lines.
const LineSize = 64

// LineShift is log2(LineSize).
const LineShift = 6

// PMBase is the first persistent address. The paper's testbed reserves 4 GB
// of an 8 GB machine as PM; we mirror that split in the simulated address
// space.
const PMBase Addr = 1 << 32

// Addr is a simulated physical byte address.
type Addr uint64

// Line identifies a 64-byte cache line by its index (Addr >> LineShift).
type Line uint64

// LineOf returns the cache line containing a.
func LineOf(a Addr) Line { return Line(a >> LineShift) }

// LineAddr returns the first byte address of line l.
func LineAddr(l Line) Addr { return Addr(l) << LineShift }

// PageShift is log2(PageLines). Pages are the unit of the simulated
// device's two-level line table (internal/pmem): 64 lines of 64 bytes,
// i.e. one 4 KiB page of data per table leaf.
const PageShift = 6

// PageLines is the number of cache lines per page.
const PageLines = 1 << PageShift

// PageOf returns the page index containing line l.
func PageOf(l Line) uint64 { return uint64(l) >> PageShift }

// PageIndex returns l's slot within its page (0..PageLines-1).
func PageIndex(l Line) uint { return uint(l) & (PageLines - 1) }

// PageFirstLine returns the first line of page p.
func PageFirstLine(p uint64) Line { return Line(p << PageShift) }

// IsPM reports whether a falls in the persistent range.
func IsPM(a Addr) bool { return a >= PMBase }

// LineIsPM reports whether line l falls in the persistent range.
func LineIsPM(l Line) bool { return IsPM(LineAddr(l)) }

// LinesSpanned returns the number of distinct cache lines touched by a write
// of size bytes starting at a. Size zero spans no lines.
func LinesSpanned(a Addr, size int) int {
	if size <= 0 {
		return 0
	}
	first := LineOf(a)
	last := LineOf(a + Addr(size) - 1)
	return int(last-first) + 1
}

// Lines returns every distinct line touched by [a, a+size).
func Lines(a Addr, size int) []Line {
	n := LinesSpanned(a, size)
	out := make([]Line, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, LineOf(a)+Line(i))
	}
	return out
}

// Span is a byte range [Addr, Addr+Size). Zero and negative sizes span
// nothing.
type Span struct {
	Addr Addr
	Size int
}

// Coalesce returns line-aligned spans covering exactly the distinct cache
// lines touched by spans, merged into maximal contiguous runs and sorted by
// address. Transaction layers use it to issue commit-time flushes once per
// dirty line: per-write dirty ranges routinely overlap within a line (e.g.
// two fields of one inode), and flushing them verbatim re-flushes lines
// that are already clean. The runs are built in runs and sorted in lines,
// both overwritten from their start; it returns the two buffers, so a
// caller that passes them back coalesces every later batch without
// allocating.
func Coalesce(runs []Span, lines []Line, spans []Span) ([]Span, []Line) {
	lines = slices.Grow(lines[:0], len(spans))
	for _, s := range spans {
		n := LinesSpanned(s.Addr, s.Size)
		first := LineOf(s.Addr)
		for i := 0; i < n; i++ {
			lines = append(lines, first+Line(i))
		}
	}
	slices.Sort(lines)
	runs = slices.Grow(runs[:0], len(lines))
	for _, l := range lines {
		if n := len(runs); n > 0 {
			prev := &runs[n-1]
			end := prev.Addr + Addr(prev.Size)
			if LineAddr(l) < end { // duplicate line
				continue
			}
			if LineAddr(l) == end { // contiguous: extend the run
				prev.Size += LineSize
				continue
			}
		}
		runs = append(runs, Span{Addr: LineAddr(l), Size: LineSize})
	}
	return runs, lines
}

func (a Addr) String() string {
	region := "dram"
	if IsPM(a) {
		region = "pm"
	}
	return fmt.Sprintf("0x%x(%s)", uint64(a), region)
}

// Cycles counts simulated processor cycles.
type Cycles uint64

// Time counts simulated nanoseconds since the start of the run. The paper's
// dependency analysis uses a 50 µs window measured on a global clock; the
// simulated clock plays that role here.
type Time uint64

const (
	Microsecond Time = 1000
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// The simulated machine is the gem5 configuration of Table 3 of the paper:
// a 2 GHz core whose PM reads and writes take 160 cycles, behind two memory
// controllers.
const (
	CPUGHz               = 2.0 // core frequency, cycles per nanosecond
	PMCycles      Cycles = 160 // PM read/write latency
	MCs                  = 2   // memory controllers
	L1Cycles      Cycles = 4   // L1 hit latency
	MCQueueCycles Cycles = 80  // memory-controller queue acceptance latency (PWQ durability point)
	StoreCycles   Cycles = 1   // nominal cost of an ordinary store that hits cache
)

// ToTime converts cycles to simulated nanoseconds.
func ToTime(c Cycles) Time { return Time(float64(c) / CPUGHz) }

// ToCycles converts simulated nanoseconds to cycles.
func ToCycles(t Time) Cycles { return Cycles(float64(t) * CPUGHz) }

// Clock is the simulated global clock. Every traced event is stamped from a
// Clock; applications advance it as they execute simulated work. Clock is
// not safe for concurrent use: the deterministic scheduler serializes all
// access (see internal/sched).
type Clock struct {
	now Time
}

// Now returns the current simulated time.
func (c *Clock) Now() Time { return c.now }

// AdvanceCycles moves the clock forward by cy cycles.
func (c *Clock) AdvanceCycles(cy Cycles) { c.now += ToTime(cy) }

// Set forces the clock to t. It is used by trace replay, which must revisit
// recorded timestamps, and must never move the clock backwards elsewhere.
func (c *Clock) Set(t Time) { c.now = t }
