package main

import (
	"bytes"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestRunErrorPaths(t *testing.T) {
	tmp := t.TempDir()
	cases := []struct {
		name      string
		args      []string
		wantCode  int
		wantErr   string // substring expected on stderr
		wantRows  int    // when wantCells is nonzero, the number of (app, mix) rows
		wantCells int    // when nonzero, every row's cell count
	}{
		{
			name:     "unknown app",
			args:     []string{"-app", "nosuchapp"},
			wantCode: 2,
			wantErr:  `unknown app "nosuchapp"`,
		},
		{
			name:     "unknown flag",
			args:     []string{"-frobnicate"},
			wantCode: 2,
			wantErr:  "flag provided but not defined",
		},
		{
			name:     "stray positional argument",
			args:     []string{"vacation", "-v"},
			wantCode: 2,
			wantErr:  "unexpected arguments: [vacation -v]",
		},
		{
			name:     "non-numeric point",
			args:     []string{"-points", "1,zap"},
			wantCode: 2,
			wantErr:  `bad crash point "zap"`,
		},
		{
			name:     "negative point",
			args:     []string{"-points", "-3"},
			wantCode: 2,
			wantErr:  "bad crash point -3",
		},
		{
			name:     "unknown mode",
			args:     []string{"-modes", "mid-epoch,quantum"},
			wantCode: 2,
			wantErr:  `unknown mode "quantum"`,
		},
		{
			// The checker would run its default 96-cell matrix.
			name:     "negative sizes",
			args:     []string{"-ops", "-3", "-clients", "-1", "-seeds", "-2"},
			wantCode: 2,
			wantErr:  "wcrash: bad -clients -1 (want ",
		},
		{
			name:     "negative ops",
			args:     []string{"-app", "ctree", "-ops", "-3"},
			wantCode: 2,
			wantErr:  "wcrash: bad -ops -3 (want ",
		},
		{
			name:     "negative seeds",
			args:     []string{"-app", "ctree", "-seeds", "-2"},
			wantCode: 2,
			wantErr:  "wcrash: bad -seeds -2 (want ",
		},
		{
			// The checker would clamp it to point 7.
			name:     "point past the last operation",
			args:     []string{"-points", "99", "-ops", "8"},
			wantCode: 2,
			wantErr:  "wcrash: bad -points 99 (want points below the run's 8 operations)",
		},
		{
			name:     "point past the default operations",
			args:     []string{"-app", "ctree", "-points", "1,16"},
			wantCode: 2,
			wantErr:  "wcrash: bad -points 1,16 (want points below the run's 16 operations)",
		},
		{
			name: "unwritable metrics path",
			args: []string{"-app", "ctree", "-ops", "4", "-seeds", "1",
				"-points", "1", "-modes", "all-persisted",
				"-metrics", filepath.Join(tmp, "missing-dir", "out.json")},
			wantCode: 2,
			wantErr:  "write metrics",
		},
		{
			name: "single cell success",
			args: []string{"-app", "ctree", "-ops", "4", "-seeds", "1",
				"-points", "1", "-modes", "all-persisted",
				"-metrics", filepath.Join(tmp, "ok.json")},
			wantCode: 0,
		},
		{
			// -seeds replaces smoke's {1, 2}: 1 seed x 4 points x 3 modes,
			// on each of hashmap's two rows (paper and checker mix).
			name:      "smoke seeds replace the smoke list",
			args:      []string{"-smoke", "-seeds", "1", "-app", "hashmap"},
			wantCode:  0,
			wantRows:  2,
			wantCells: 12,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(tc.args, &stdout, &stderr)
			if code != tc.wantCode {
				t.Fatalf("exit code = %d, want %d (stderr: %s)", code, tc.wantCode, stderr.String())
			}
			if tc.wantErr != "" && !strings.Contains(stderr.String(), tc.wantErr) {
				t.Fatalf("stderr %q does not contain %q", stderr.String(), tc.wantErr)
			}
			if tc.wantCode == 0 && !strings.Contains(stdout.String(), "ok") {
				t.Fatalf("success run printed no ok row:\n%s", stdout.String())
			}
			if tc.wantCells != 0 {
				rows := strings.Split(strings.TrimSpace(stdout.String()), "\n")[1:]
				if len(rows) != tc.wantRows {
					t.Fatalf("want %d rows:\n%s", tc.wantRows, stdout.String())
				}
				for _, row := range rows {
					if strings.Fields(row)[2] != strconv.Itoa(tc.wantCells) {
						t.Fatalf("want rows of %d cells:\n%s", tc.wantCells, stdout.String())
					}
				}
			}
		})
	}
}

func TestParsePoints(t *testing.T) {
	got, err := parsePoints(" 0, 5 ,31")
	if err != nil || len(got) != 3 || got[0] != 0 || got[1] != 5 || got[2] != 31 {
		t.Fatalf("parsePoints = %v, %v", got, err)
	}
	if pts, err := parsePoints(""); err != nil || pts != nil {
		t.Fatalf("empty points = %v, %v", pts, err)
	}
}
