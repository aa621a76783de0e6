package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
)

// machine stamps a report with what produced it, so numbers from
// different builds or hosts are never compared unknowingly.
type machine struct {
	GoVersion  string `json:"go_version"`
	Revision   string `json:"vcs_revision"`
	Dirty      bool   `json:"vcs_dirty"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
	Seed       int64  `json:"seed"`
}

func stampMachine(seed int64) machine {
	m := machine{
		GoVersion:  runtime.Version(),
		Revision:   "unknown",
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Kernel:     "unknown",
		Seed:       seed,
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		m.Kernel = strings.TrimSpace(string(b))
	}
	stamped := false
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				m.Revision, stamped = s.Value, true
			case "vcs.modified":
				m.Dirty = s.Value == "true"
			}
		}
	}
	if !stamped {
		// Built without VCS stamping: ask git, when this is a work tree.
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			m.Revision = strings.TrimSpace(string(out))
			if st, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output(); err == nil {
				m.Dirty = len(strings.TrimSpace(string(st))) > 0
			}
		}
	}
	return m
}

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
