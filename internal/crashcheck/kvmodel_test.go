package crashcheck

import (
	"strings"
	"testing"

	"github.com/whisper-pm/whisper/internal/persist"
	"github.com/whisper-pm/whisper/internal/pmem"
	"github.com/whisper-pm/whisper/internal/trace"
)

// TestModelVerdicts pins what Model calls a legal recovered state, on the
// fence-deficient naiveKV and its fenced twin. Each case scripts some
// traffic, power-fails the device under strict semantics (every line not
// explicitly persisted is lost), recovers and checks. The scenario engine's
// app tenants are judged by this same Model.
func TestModelVerdicts(t *testing.T) {
	type model = Model[uint64, uint64]
	// insertEvents is the PM event count of one naiveKV insert, so a case can
	// stop an insert at its first event or at its last.
	insertEvents := func(fenced bool) int {
		rt := persist.NewRuntime("naive-kv", "native", 1, persist.Config{})
		kv := &naiveKV{fenced: fenced}
		kv.open(rt)
		n := 0
		rt.SetEventHook(func(trace.Event) { n++ })
		kv.Insert(0, 1, 1)
		return n
	}
	// abortInsert stops m.Insert(key, val) at its n-th PM event.
	abortInsert := func(t *testing.T, rt *persist.Runtime, m *model, n int, key, val uint64) {
		t.Helper()
		if !rt.AbortAt(n, nil, func() { m.Insert(0, key, val) }) {
			t.Fatalf("insert finished before event %d", n)
		}
	}
	for _, tc := range []struct {
		name    string
		fenced  bool
		traffic func(t *testing.T, rt *persist.Runtime, m *model)
		want    string // substring of Check's error; "" means a clean check
	}{
		{"acknowledged writes survive", true, func(t *testing.T, rt *persist.Runtime, m *model) {
			m.Insert(0, 1, 10)
			m.Insert(0, 2, 20)
			m.Insert(0, 1, 11)
			m.Get(0, 1)
			m.Get(0, 3)
		}, ""},
		{"lost acknowledged write", false, func(t *testing.T, rt *persist.Runtime, m *model) {
			m.Insert(0, 1, 10)
		}, "key 1: recovered (0,false), model (10,true)"},
		{"in-flight key in its before state", true, func(t *testing.T, rt *persist.Runtime, m *model) {
			m.Insert(0, 1, 10)
			abortInsert(t, rt, m, 1, 1, 11)
		}, ""},
		{"in-flight key in its after state", true, func(t *testing.T, rt *persist.Runtime, m *model) {
			m.Insert(0, 1, 10)
			abortInsert(t, rt, m, insertEvents(true), 1, 11)
		}, ""},
		{"in-flight key in neither state", false, func(t *testing.T, rt *persist.Runtime, m *model) {
			m.Insert(0, 1, 10) // acknowledged, never persisted
			abortInsert(t, rt, m, 1, 1, 11)
		}, "in-flight key 1: (0,false) is neither before (10,true) nor after (11,true)"},
		{"in-flight key does not excuse another", false, func(t *testing.T, rt *persist.Runtime, m *model) {
			m.Insert(0, 2, 20)
			abortInsert(t, rt, m, 1, 1, 11)
		}, "key 2: recovered (0,false), model (20,true)"},
		{"first mismatch is the lowest key", false, func(t *testing.T, rt *persist.Runtime, m *model) {
			for key := uint64(12); key >= 3; key-- {
				m.Insert(0, key, key*10)
			}
		}, "key 3: "},
		{"store error surfaces at Check", true, func(t *testing.T, rt *persist.Runtime, m *model) {
			m.Insert(0, 4, 40)
			m.Delete(0, 4)
		}, "delete 4: append-only store"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := persist.NewRuntime("naive-kv", "native", 1, persist.Config{})
			kv := &naiveKV{fenced: tc.fenced}
			kv.open(rt)
			m := NewModel[uint64, uint64](kv)
			tc.traffic(t, rt, m)
			rt.Crash(pmem.Strict, 1)
			m.Recover()
			err := m.Check(0)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("legal recovered state rejected: %v", err)
			case tc.want != "" && err == nil:
				t.Fatalf("illegal recovered state accepted, want %q", tc.want)
			case tc.want != "" && !strings.Contains(err.Error(), tc.want):
				t.Fatalf("Check = %q, want it to contain %q", err, tc.want)
			}
		})
	}
}
