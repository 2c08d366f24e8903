package mem

import (
	"testing"
	"testing/quick"
)

func TestLineOf(t *testing.T) {
	cases := []struct {
		a    Addr
		want Line
	}{
		{0, 0},
		{1, 0},
		{63, 0},
		{64, 1},
		{65, 1},
		{128, 2},
		{PMBase, Line(PMBase >> LineShift)},
	}
	for _, c := range cases {
		if got := LineOf(c.a); got != c.want {
			t.Errorf("LineOf(%v) = %d, want %d", c.a, got, c.want)
		}
	}
}

func TestLineAddrRoundTrip(t *testing.T) {
	f := func(raw uint64) bool {
		a := Addr(raw)
		l := LineOf(a)
		base := LineAddr(l)
		return base <= a && a < base+LineSize && LineOf(base) == l
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIsPM(t *testing.T) {
	if IsPM(PMBase - 1) {
		t.Error("address below PMBase classified as PM")
	}
	if !IsPM(PMBase) {
		t.Error("PMBase not classified as PM")
	}
	if !LineIsPM(LineOf(PMBase + 100)) {
		t.Error("PM line not classified as PM")
	}
}

func TestLinesSpanned(t *testing.T) {
	cases := []struct {
		a    Addr
		size int
		want int
	}{
		{0, 0, 0},
		{0, 1, 1},
		{0, 64, 1},
		{0, 65, 2},
		{63, 2, 2},
		{63, 1, 1},
		{10, 128, 3},
		{64, 64, 1},
	}
	for _, c := range cases {
		if got := LinesSpanned(c.a, c.size); got != c.want {
			t.Errorf("LinesSpanned(%d, %d) = %d, want %d", c.a, c.size, got, c.want)
		}
	}
}

func TestLinesSpannedMatchesLines(t *testing.T) {
	f := func(raw uint64, rawSize uint16) bool {
		a := Addr(raw % (1 << 40))
		size := int(rawSize % 4096)
		ls := Lines(a, size)
		if len(ls) != LinesSpanned(a, size) {
			return false
		}
		for i, l := range ls {
			if i > 0 && l != ls[i-1]+1 {
				return false // lines must be consecutive
			}
		}
		if size > 0 && ls[0] != LineOf(a) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestClock(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatal("new clock not at zero")
	}
	c.AdvanceCycles(300) // 2 GHz: 2 cycles per ns
	if c.Now() != 150 {
		t.Fatalf("clock = %d, want 150 after 300 cycles at 2 GHz", c.Now())
	}
	c.AdvanceCycles(200)
	if c.Now() != 250 {
		t.Fatalf("clock = %d, want 250 after 200 more cycles", c.Now())
	}
}

func TestLatencyConversions(t *testing.T) {
	if got := ToTime(2000); got != 1000 {
		t.Errorf("ToTime(2000 cyc) = %d ns, want 1000", got)
	}
	if got := ToCycles(1000); got != 2000 {
		t.Errorf("ToCycles(1000 ns) = %d, want 2000", got)
	}
	// An odd cycle count truncates to the nanosecond below.
	if got := ToTime(1); got != 0 {
		t.Errorf("ToTime(1 cyc) = %d ns, want 0", got)
	}
}

func TestDefaultLatencyMatchesPaperTable3(t *testing.T) {
	if PMCycles != 160 {
		t.Errorf("PM latency = %d cycles, paper uses 160", PMCycles)
	}
	if CPUGHz != 2.0 {
		t.Errorf("CPU frequency = %v GHz, paper uses 2", CPUGHz)
	}
}
