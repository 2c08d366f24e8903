package pmsan

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"github.com/whisper-pm/whisper/internal/mem"
)

// Allowlist suppresses known-intentional violation sites. The file
// format is line-oriented; blank lines and #-comments are ignored.
// Each rule is:
//
//	<app> <class> [t<tid>] [line=0x<hex>]
//
// where <app> is a suite app name or "*", <class> is a violation class
// name (e.g. "dirty-at-commit") or "*", and the optional fields narrow
// the rule to one thread and/or one cache line (the line's first byte
// address, as printed in reports). Examples:
//
//	# pmfs journal descriptor rides the first entry's fence
//	nfs unfenced-flush t0
//	* fence-without-work
//	echo dirty-at-commit t2 line=0x100000040
//
// A matched site is marked Suppressed, which removes it from
// Report.Errors (and thus from the CI gate) but keeps it visible in the
// rendered report.
type Allowlist struct {
	rules []allowRule
}

type allowRule struct {
	app   string // app name or "*"
	class string // class name or "*"

	hasTID bool
	tid    uint16

	hasLine bool
	line    mem.Line
}

func (r allowRule) matches(app string, v Violation) bool {
	if r.app != "*" && r.app != app {
		return false
	}
	if r.class != "*" && r.class != v.Class.String() {
		return false
	}
	if r.hasTID && r.tid != v.TID {
		return false
	}
	if r.hasLine && r.line != v.Line {
		return false
	}
	return true
}

// Apply marks every violation in the report that matches a rule as
// suppressed and returns how many sites were newly suppressed.
func (a *Allowlist) Apply(r *Report) int {
	if a == nil || len(a.rules) == 0 {
		return 0
	}
	n := 0
	for i := range r.Violations {
		v := &r.Violations[i]
		if v.Suppressed {
			continue
		}
		for _, rule := range a.rules {
			if rule.matches(r.App, *v) {
				v.Suppressed = true
				n++
				break
			}
		}
	}
	return n
}

// ParseAllowlist reads the allowlist format from r. Malformed rules are
// errors (with 1-based line numbers), not silently skipped: a typo in a
// suppression file must not quietly re-open the CI gate.
func ParseAllowlist(r io.Reader) (*Allowlist, error) {
	a := &Allowlist{}
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		text := sc.Text()
		if i := strings.IndexByte(text, '#'); i >= 0 {
			text = text[:i]
		}
		fields := strings.Fields(text)
		if len(fields) == 0 {
			continue
		}
		if len(fields) < 2 {
			return nil, fmt.Errorf("pmsan: allowlist line %d: want \"<app> <class> [t<tid>] [line=0x<hex>]\", got %q", lineNo, strings.TrimSpace(text))
		}
		rule := allowRule{app: fields[0], class: fields[1]}
		if rule.class != "*" {
			if _, ok := ClassByName(rule.class); !ok {
				return nil, fmt.Errorf("pmsan: allowlist line %d: unknown class %q", lineNo, rule.class)
			}
		}
		for _, f := range fields[2:] {
			switch {
			case strings.HasPrefix(f, "t") && !strings.Contains(f, "="):
				tid, err := strconv.ParseUint(f[1:], 10, 16)
				if err != nil {
					return nil, fmt.Errorf("pmsan: allowlist line %d: bad thread %q", lineNo, f)
				}
				rule.hasTID, rule.tid = true, uint16(tid)
			case strings.HasPrefix(f, "line="):
				addr, err := strconv.ParseUint(strings.TrimPrefix(strings.TrimPrefix(f, "line="), "0x"), 16, 64)
				if err != nil {
					return nil, fmt.Errorf("pmsan: allowlist line %d: bad line %q", lineNo, f)
				}
				rule.hasLine, rule.line = true, mem.LineOf(mem.Addr(addr))
			default:
				return nil, fmt.Errorf("pmsan: allowlist line %d: unknown field %q", lineNo, f)
			}
		}
		a.rules = append(a.rules, rule)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("pmsan: allowlist: %v", err)
	}
	return a, nil
}
