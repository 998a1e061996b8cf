package main

import (
	"bufio"
	"os"
	"runtime"
	"strings"
)

// host records what the numbers were measured on. Runs on different core
// counts or CPU quotas are not comparable; the record makes that visible.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUMax     string `json:"cgroup_cpu_max"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
}

func hostInfo() host {
	h := host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUMax:     "unavailable",
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
	}
	if b, err := os.ReadFile("/sys/fs/cgroup/cpu.max"); err == nil {
		h.CPUMax = strings.TrimSpace(string(b))
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}
