package scenario

import (
	"fmt"
	"strconv"
	"strings"
)

// String renders the spec in the text format Parse accepts. For any spec
// that came through Parse or withDefaults, Parse(String()) reproduces it
// exactly (the fuzz target pins this round trip).
func (s *Spec) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %s\n", s.Name)
	for _, t := range s.Tenants {
		fmt.Fprintf(&b, "tenant %s keys=%d", t.App, t.Keys)
		if t.App == "kvservice" {
			fmt.Fprintf(&b, " shards=%d batch=%d seg=%d", t.Shards, t.Batch, t.SegBytes)
		}
		b.WriteByte('\n')
		for _, p := range t.Phases {
			fmt.Fprintf(&b, "  phase ops=%d writes=%d dels=%d", p.Ops, p.WritePct, p.DelPct)
			if p.HotPct > 0 {
				fmt.Fprintf(&b, " hot=%d/%d", p.HotPct, p.HotKeys)
				if p.Rotate > 0 {
					fmt.Fprintf(&b, " rotate=%d", p.Rotate)
				}
			} else {
				fmt.Fprintf(&b, " zipf=%s", strconv.FormatFloat(p.Zipf, 'g', -1, 64))
			}
			fmt.Fprintf(&b, " vlen=%d", p.ValueLen)
			if p.Think > 0 {
				fmt.Fprintf(&b, " think=%d", p.Think)
			}
			b.WriteByte('\n')
		}
	}
	if s.Crash.Every > 0 {
		fmt.Fprintf(&b, "crash every=%d mode=%s", s.Crash.Every, s.Crash.Mode)
		if s.Crash.MidBatch {
			b.WriteString(" midbatch")
		}
		b.WriteByte('\n')
	}
	return b.String()
}
