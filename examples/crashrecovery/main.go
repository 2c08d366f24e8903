// crashrecovery stress-tests the PMFS filesystem substrate: it runs a mail
// workload, injects adversarial power failures mid-flight, recovers, and
// verifies that every completed system call survived — the
// crash-recoverability property WHISPER requires of its applications.
package main

import (
	"fmt"
	"log"

	"github.com/whisper-pm/whisper/internal/persist"
	"github.com/whisper-pm/whisper/internal/pmem"
	"github.com/whisper-pm/whisper/internal/pmfs"
)

func main() {
	rt := persist.NewRuntime("crash-example", "pmfs", 1, persist.Config{NoTrace: true})
	th := rt.Thread(0)
	fs := pmfs.Format(rt, th, pmfs.Options{Inodes: 512, Blocks: 2048})

	if err := fs.Mkdir(th, "/mail"); err != nil {
		log.Fatal(err)
	}

	survived := 0
	for round := 0; round < 20; round++ {
		path := fmt.Sprintf("/mail/msg%02d", round)
		if err := fs.Create(th, path); err != nil {
			log.Fatalf("round %d: %v", round, err)
		}
		body := []byte(fmt.Sprintf("message %d: persistent memory is fun\n", round))
		if err := fs.WriteAt(th, path, 0, body); err != nil {
			log.Fatalf("round %d: %v", round, err)
		}
		survived++

		// Every few rounds: pull the plug with the adversarial model
		// (random in-flight cache lines persist, others are lost).
		if round%5 == 4 {
			rt.Crash(pmem.Adversarial, int64(round)*7919)
			fs.Recover(th)
			fmt.Printf("crash after %2d messages: recovered, checking...\n", survived)
			verify(rt, fs, survived)
		}
	}
	verify(rt, fs, survived)
	fmt.Printf("all %d completed writes survived %d crashes\n", survived, 4)
}

func verify(rt *persist.Runtime, fs *pmfs.FS, n int) {
	th := rt.Thread(0)
	names, err := fs.Readdir(th, "/mail")
	if err != nil {
		log.Fatal(err)
	}
	if len(names) != n {
		log.Fatalf("directory has %d entries, want %d", len(names), n)
	}
	for i := 0; i < n; i++ {
		path := fmt.Sprintf("/mail/msg%02d", i)
		want := fmt.Sprintf("message %d: persistent memory is fun\n", i)
		got, err := fs.ReadAt(th, path, 0, len(want))
		if err != nil {
			log.Fatalf("%s: %v", path, err)
		}
		if string(got) != want {
			log.Fatalf("%s: content torn: %q", path, got)
		}
	}
}
