package main

import (
	"bufio"
	"crypto/sha256"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// hostInfo is recorded in every report so that a ledger from another
// machine is just another row, not a contradiction.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"commit"`
}

func readHostInfo() hostInfo {
	return hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Commit:     gitCommit(),
	}
}

// gitCommit names the checkout's commit, or "unknown" outside a git
// repository (the benchmark driver runs in an exported tree).
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// canaryBytes is the size of the buffer each canary goroutine hashes.
const canaryBytes = 16 << 20

var canaryBuf = func() []byte {
	b := make([]byte, canaryBytes)
	for i := range b {
		b[i] = byte(i * 131)
	}
	return b
}()

// canaryReps is how often the canary loop runs; the fastest repetition
// is the reading. One 20 ms repetition alone moves by ±15 % with where the
// hypervisor happens to schedule the goroutines' threads.
const canaryReps = 3

// canary times a fixed CPU loop that uses no code of this repository —
// SHA-256 over 16 MiB on every GOMAXPROCS goroutine at once — so its
// duration can only change with the host, never with a commit. A pass
// bracketed by slow canaries ran on a disturbed machine.
func canary() float64 {
	best := 0.0
	for rep := 0; rep < canaryReps; rep++ {
		start := time.Now()
		var wg sync.WaitGroup
		for i := 0; i < runtime.GOMAXPROCS(0); i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sum := sha256.Sum256(canaryBuf)
				runtime.KeepAlive(sum)
			}()
		}
		wg.Wait()
		if d := time.Since(start).Seconds(); rep == 0 || d < best {
			best = d
		}
	}
	return best
}

// cpuTimes is the aggregate "cpu" line of /proc/stat in clock ticks.
type cpuTimes struct{ total, steal uint64 }

func readCPUTimes() (cpuTimes, bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTimes{}, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 9 || fields[0] != "cpu" {
			continue
		}
		var t cpuTimes
		for i, s := range fields[1:] {
			v, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				return cpuTimes{}, false
			}
			// guest and guest_nice (fields 9, 10) are already in user/nice.
			if i < 8 {
				t.total += v
			}
			if i == 7 {
				t.steal = v
			}
		}
		return t, true
	}
	return cpuTimes{}, false
}

// stealPct is the share of all CPU time between two readings that the
// hypervisor gave to someone else.
func stealPct(a, b cpuTimes) float64 {
	if b.total <= a.total {
		return 0
	}
	return 100 * float64(b.steal-a.steal) / float64(b.total-a.total)
}

// clockProcessCPUTime is Linux's CLOCK_PROCESS_CPUTIME_ID.
const clockProcessCPUTime = 2

// processCPU is user+system CPU seconds this process has used so far,
// over all its threads. The scheduler's own clock is read first because
// getrusage advances only once per timer tick (4 ms here), a twentieth of
// the shortest round measured.
func processCPU() float64 {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime,
		uintptr(unsafe.Pointer(&ts)), 0); errno == 0 {
		return float64(ts.Sec) + float64(ts.Nsec)/1e9
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

// peakRSSMB is this process's high-water resident set.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}
