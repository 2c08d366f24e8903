// Package scenario is a composable, deterministic traffic engine over the
// WHISPER applications and the sharded kvservice. A scenario spec declares
// a multi-tenant mix — several apps sharing one persistence runtime plus
// any number of kvservice instances — and per-tenant traffic phases with
// zipfian or rotating-hotspot key skew, write/delete mixes, and think-time
// spikes. A crash plan periodically power-fails every persistence domain
// under live traffic and drives each tenant's recovery path, validating
// the recovered state against a volatile oracle at every recovery point
// (for app tenants crashcheck.Model, imported and run *online*). Reports
// are deterministic: the same spec and seed produce byte-identical JSON
// on any GOMAXPROCS.
package scenario

import (
	"fmt"
	"strconv"
	"strings"
)

// Apps the engine can instantiate as tenants. "kvservice" runs a sharded
// Service with its own devices; the rest share the scenario runtime.
var tenantApps = []string{"ctree", "hashmap", "redis", "memcached", "kvservice"}

func knownApp(app string) bool {
	for _, a := range tenantApps {
		if a == app {
			return true
		}
	}
	return false
}

// Spec is one declarative scenario.
type Spec struct {
	Name    string
	Tenants []Tenant
	Crash   CrashPlan
}

// Tenant is one traffic source bound to one app (or service) instance.
type Tenant struct {
	App      string
	Keys     uint64 // keyspace size
	Shards   int    // kvservice only
	Batch    int    // kvservice only: group-commit batch size
	SegBytes int    // kvservice only: log segment size (compaction churn knob)
	Phases   []Phase
}

// Phase is a contiguous stretch of a tenant's traffic with one skew and
// mix profile; consecutive phases model working-set and load changes.
type Phase struct {
	Ops      int
	WritePct int     // percent of ops that write
	DelPct   int     // percent of ops that delete
	Zipf     float64 // zipfian skew; used when HotPct == 0
	HotPct   int     // percent of draws in the hot window (hotspot mode)
	HotKeys  uint64  // hot window size
	Rotate   int     // draws between hot-window rotations (0 = static)
	ValueLen int     // value payload bytes
	Think    int     // compute cycles charged per op (load-spike knob)
}

// CrashPlan injects Crash()+recovery cycles under live traffic.
type CrashPlan struct {
	Every    int    // global ops between crashes (0 = never)
	Mode     string // "strict", "adversarial", or "alternate"
	MidBatch bool   // abort a kvservice group commit mid-batch first
}

// withDefaults fills unset fields so parsed, built-in, and fuzz-generated
// specs all normalize to the same canonical form.
func (s *Spec) withDefaults() {
	if s.Name == "" {
		s.Name = "unnamed"
	}
	for i := range s.Tenants {
		t := &s.Tenants[i]
		if t.Keys == 0 {
			t.Keys = 256
		}
		if t.App == "kvservice" {
			if t.Shards <= 0 {
				t.Shards = 2
			}
			if t.Batch <= 0 {
				t.Batch = 4
			}
			if t.SegBytes <= 0 {
				// Small segments so crash storms exercise segment growth,
				// padded tails and compaction, not just segment zero.
				t.SegBytes = 1 << 14
			}
		} else {
			t.Shards = 0
			t.Batch = 0
			t.SegBytes = 0
		}
		for j := range t.Phases {
			p := &t.Phases[j]
			if p.Zipf == 0 && p.HotPct == 0 {
				p.Zipf = 1.1
			}
			if p.HotPct > 0 {
				p.Zipf = 0 // hotspot mode owns the skew knob
				if p.HotKeys == 0 {
					p.HotKeys = max(1, t.Keys/8)
				}
			} else {
				p.HotKeys = 0
				p.Rotate = 0
			}
			if p.Rotate < 0 {
				p.Rotate = 0
			}
			if p.Think < 0 {
				p.Think = 0
			}
			if p.ValueLen <= 0 {
				p.ValueLen = 16
			}
		}
	}
	if s.Crash.Every > 0 && s.Crash.Mode == "" {
		s.Crash.Mode = "alternate"
	}
	if s.Crash.Every <= 0 {
		s.Crash = CrashPlan{}
	}
}

// Validate rejects specs the engine cannot run.
func (s *Spec) Validate() error {
	if strings.ContainsAny(s.Name, " \t\n") || s.Name == "" {
		return fmt.Errorf("scenario: invalid name %q", s.Name)
	}
	if len(s.Tenants) == 0 {
		return fmt.Errorf("scenario %s: no tenants", s.Name)
	}
	for i, t := range s.Tenants {
		if !knownApp(t.App) {
			return fmt.Errorf("scenario %s: tenant %d: unknown app %q (have %v)", s.Name, i, t.App, tenantApps)
		}
		if len(t.Phases) == 0 {
			return fmt.Errorf("scenario %s: tenant %d (%s): no phases", s.Name, i, t.App)
		}
		if t.App == "kvservice" && t.SegBytes != 0 && t.SegBytes < 256 {
			return fmt.Errorf("scenario %s: tenant %d: seg=%d too small (want >= 256)", s.Name, i, t.SegBytes)
		}
		for j, p := range t.Phases {
			if p.Ops <= 0 {
				return fmt.Errorf("scenario %s: tenant %d phase %d: ops must be positive", s.Name, i, j)
			}
			if p.WritePct < 0 || p.DelPct < 0 || p.WritePct+p.DelPct > 100 {
				return fmt.Errorf("scenario %s: tenant %d phase %d: writes%%+dels%% out of range", s.Name, i, j)
			}
			if p.HotPct < 0 || p.HotPct > 100 {
				return fmt.Errorf("scenario %s: tenant %d phase %d: hot%% out of range", s.Name, i, j)
			}
		}
	}
	if c := s.Crash; c.Every > 0 {
		switch c.Mode {
		case "strict", "adversarial", "alternate":
		default:
			return fmt.Errorf("scenario %s: crash mode %q (want strict|adversarial|alternate)", s.Name, c.Mode)
		}
	}
	return nil
}

// Parse reads the text scenario format:
//
//	scenario NAME
//	tenant APP [keys=N] [shards=N] [batch=N] [seg=BYTES]
//	  phase ops=N [writes=PCT] [dels=PCT] [zipf=S | hot=PCT/KEYS [rotate=N]] [vlen=N] [think=CYCLES]
//	crash every=N [mode=strict|adversarial|alternate] [midbatch]
//
// Blank lines and #-comments are skipped; phase lines attach to the most
// recent tenant. The parsed spec is normalized (withDefaults) and
// validated.
func Parse(src string) (*Spec, error) {
	s := &Spec{}
	sawName := false
	for ln, raw := range strings.Split(src, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		switch f[0] {
		case "scenario":
			if len(f) != 2 {
				return nil, fmt.Errorf("line %d: want 'scenario NAME'", ln+1)
			}
			if sawName {
				return nil, fmt.Errorf("line %d: duplicate scenario line", ln+1)
			}
			s.Name = f[1]
			sawName = true
		case "tenant":
			if len(f) < 2 {
				return nil, fmt.Errorf("line %d: want 'tenant APP [k=v...]'", ln+1)
			}
			t := Tenant{App: f[1]}
			for _, kv := range f[2:] {
				k, v, err := splitKV(kv, ln+1)
				if err != nil {
					return nil, err
				}
				switch k {
				case "keys":
					t.Keys, err = parseU64(v, ln+1, k)
				case "shards":
					t.Shards, err = parseInt(v, ln+1, k)
				case "batch":
					t.Batch, err = parseInt(v, ln+1, k)
				case "seg":
					t.SegBytes, err = parseInt(v, ln+1, k)
				default:
					err = fmt.Errorf("line %d: unknown tenant option %q", ln+1, k)
				}
				if err != nil {
					return nil, err
				}
			}
			s.Tenants = append(s.Tenants, t)
		case "phase":
			if len(s.Tenants) == 0 {
				return nil, fmt.Errorf("line %d: phase before any tenant", ln+1)
			}
			p := Phase{}
			for _, kv := range f[1:] {
				k, v, err := splitKV(kv, ln+1)
				if err != nil {
					return nil, err
				}
				switch k {
				case "ops":
					p.Ops, err = parseInt(v, ln+1, k)
				case "writes":
					p.WritePct, err = parseInt(v, ln+1, k)
				case "dels":
					p.DelPct, err = parseInt(v, ln+1, k)
				case "zipf":
					p.Zipf, err = strconv.ParseFloat(v, 64)
					if err != nil {
						err = fmt.Errorf("line %d: bad zipf %q", ln+1, v)
					}
				case "hot":
					pct, keys, ok := strings.Cut(v, "/")
					if !ok {
						return nil, fmt.Errorf("line %d: want hot=PCT/KEYS", ln+1)
					}
					if p.HotPct, err = parseInt(pct, ln+1, k); err == nil {
						p.HotKeys, err = parseU64(keys, ln+1, k)
					}
				case "rotate":
					p.Rotate, err = parseInt(v, ln+1, k)
				case "vlen":
					p.ValueLen, err = parseInt(v, ln+1, k)
				case "think":
					p.Think, err = parseInt(v, ln+1, k)
				default:
					err = fmt.Errorf("line %d: unknown phase option %q", ln+1, k)
				}
				if err != nil {
					return nil, err
				}
			}
			t := &s.Tenants[len(s.Tenants)-1]
			t.Phases = append(t.Phases, p)
		case "crash":
			for _, kv := range f[1:] {
				if kv == "midbatch" {
					s.Crash.MidBatch = true
					continue
				}
				k, v, err := splitKV(kv, ln+1)
				if err != nil {
					return nil, err
				}
				switch k {
				case "every":
					s.Crash.Every, err = parseInt(v, ln+1, k)
				case "mode":
					s.Crash.Mode = v
				default:
					err = fmt.Errorf("line %d: unknown crash option %q", ln+1, k)
				}
				if err != nil {
					return nil, err
				}
			}
		default:
			return nil, fmt.Errorf("line %d: unknown directive %q", ln+1, f[0])
		}
	}
	s.withDefaults()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

func splitKV(kv string, line int) (string, string, error) {
	k, v, ok := strings.Cut(kv, "=")
	if !ok || k == "" || v == "" {
		return "", "", fmt.Errorf("line %d: want key=value, got %q", line, kv)
	}
	return k, v, nil
}

func parseInt(v string, line int, key string) (int, error) {
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("line %d: bad %s %q", line, key, v)
	}
	return n, nil
}

func parseU64(v string, line int, key string) (uint64, error) {
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("line %d: bad %s %q", line, key, v)
	}
	return n, nil
}
