package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// shape is the machine and run description printed with every output.
type shape struct {
	nproc      int
	gomaxprocs int
	goVersion  string
	cpuModel   string
	commit     string
	seed       int64
}

func readShape(seed int64) shape {
	return shape{
		nproc:      runtime.NumCPU(),
		gomaxprocs: runtime.GOMAXPROCS(0),
		goVersion:  runtime.Version(),
		cpuModel:   cpuModel(),
		commit:     gitCommit(),
		seed:       seed,
	}
}

func (s shape) String() string {
	return fmt.Sprintf("machine: nproc=%d GOMAXPROCS=%d %s cpu=%q commit=%s seed=%d",
		s.nproc, s.gomaxprocs, s.goVersion, s.cpuModel, s.commit, s.seed)
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit resolves HEAD by reading .git directly (searching upwards from
// the working directory); a checkout that is not a repository has none.
func gitCommit() string {
	dir, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	for {
		head, err := os.ReadFile(filepath.Join(dir, ".git", "HEAD"))
		if err == nil {
			ref := strings.TrimSpace(string(head))
			name, isRef := strings.CutPrefix(ref, "ref: ")
			if !isRef {
				return ref
			}
			if b, err := os.ReadFile(filepath.Join(dir, ".git", name)); err == nil {
				return strings.TrimSpace(string(b))
			}
			return name
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "unknown"
		}
		dir = parent
	}
}

// cpuTimes is the aggregate "cpu" line of /proc/stat.
type cpuTimes struct {
	total, steal uint64
}

func readSteal() cpuTimes {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTimes{}
	}
	var t cpuTimes
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuTimes{}
		}
		if i < 8 { // user..steal; guest times are already inside user
			t.total += v
		}
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// stealShare is the share of CPU time the hypervisor withheld between two
// readings.
func stealShare(a, b cpuTimes) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}
