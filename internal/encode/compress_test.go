package encode

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"sync"
	"testing"
)

// compressInputs are fixed inputs for the gz and deflate byte pins: empty,
// a PII-sized token, a hashed-token-sized hex string and a long, repetitive
// payload that spans several deflate blocks' worth of matches.
var compressInputs = [][]byte{
	nil,
	[]byte("foo@mydom.com"),
	[]byte("d1f1bd4f7b5c2a0f6e8c9d3a4b5c6d7e8f9a0b1c2d3e4f5a6b7c8d9e0f1a2b3c"),
	bytes.Repeat([]byte("jane.doe+shop@example.co.jp|"), 4096),
}

// TestCompressOutputPinned pins the gz and deflate output bytes of fixed
// inputs. The candidate set hashes and matches these bytes, so a writer
// that is reused must emit exactly what a fresh one does.
func TestCompressOutputPinned(t *testing.T) {
	want := map[string][]string{
		"gz": {
			"10c2221846da8b4250e556aa520c86d6674614d7c5874d8b9cb7f26d62835036",
			"be9fdd57899d739014a9d01b259fac231792843d9a3dcf45bb7b35f49beeb2cb",
			"ca8eeef3659559b762e633dee73aafd3d4488b1ddf2d84700f7caf39dad90b2d",
			"e0674dcf2123b671c152814eed8e3d59ef9c0b72f8c83164e37bf494d0261907",
		},
		"deflate": {
			"f067985d352d2da6dfaef4844a66d06c5371ecbd9530a4d195ac599fef8b3427",
			"3a564792aa4c6879015df46c212989d086b0e6cb13a737021ce13f5a3bd21be3",
			"05ad6f9338ff481bd6efa85f946888b980e950b48c4e1ae7b267fdb7762a23a2",
			"460bf098d9ae683c7b28544856d1061d082ffeea7cf9969489243b3a61ad6604",
		},
	}
	for _, name := range []string{"gz", "deflate"} {
		for i, in := range compressInputs {
			out, err := Apply(name, in)
			if err != nil {
				t.Fatal(err)
			}
			// Twice: the second call takes a writer the first returned.
			again, _ := Apply(name, in)
			if !bytes.Equal(out, again) {
				t.Errorf("%s input %d: second encode differs from the first", name, i)
			}
			sum := sha256.Sum256(out)
			if got := hex.EncodeToString(sum[:]); got != want[name][i] {
				t.Errorf("%s input %d: sha256 %s, want %s", name, i, got, want[name][i])
			}
		}
	}
}

// TestCompressConcurrent encodes from several goroutines at once and
// checks every output against the serial one (run under -race).
func TestCompressConcurrent(t *testing.T) {
	type job struct {
		name string
		in   []byte
	}
	var jobs []job
	var serial [][]byte
	for _, name := range []string{"gz", "deflate"} {
		for _, in := range compressInputs {
			out, _ := Apply(name, in)
			jobs = append(jobs, job{name, in})
			serial = append(serial, out)
		}
	}
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 4; rep++ {
				for k := range jobs {
					i := (k + g) % len(jobs) // goroutines start at different jobs
					if out, _ := Apply(jobs[i].name, jobs[i].in); !bytes.Equal(out, serial[i]) {
						t.Errorf("goroutine %d: %s output differs from the serial encode", g, jobs[i].name)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
