package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// stampInfo identifies the host, toolchain, code and settings a result was
// measured with. It heads every result file.
type stampInfo struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitCommit  string `json:"git_commit"`
	SourceHash string `json:"source_sha256"` // of every .go file and go.mod, for checkouts without git
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Traced     bool   `json:"traced"`
	Started    string `json:"started"`
}

func stamp(cfg config, traced bool) stampInfo {
	return stampInfo{
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GitCommit:  gitCommit(),
		SourceHash: sourceHash("."),
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Traced:     traced,
		Started:    time.Now().UTC().Format("20060102T150405Z"),
	}
}

func (s stampInfo) lines() []string {
	return []string{
		fmt.Sprintf("workload=%s seed=%d seconds=%d traced=%v", s.Workload, s.Seed, s.Seconds, s.Traced),
		fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s", s.CPUModel, s.NumCPU, s.GOMAXPROCS, s.GoVersion),
		fmt.Sprintf("commit=%s source_sha256=%s", s.GitCommit, s.SourceHash),
	}
}

func (s stampInfo) fileStem() string {
	t := 0
	if s.Traced {
		t = 1
	}
	return fmt.Sprintf("%s-seed%d-trace%d-%s", s.Workload, s.Seed, t, s.Started)
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

// gitCommit names the checked-out commit, without looking above the
// working directory for a repository.
func gitCommit() string {
	wd, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	git := func(args ...string) ([]byte, error) {
		cmd := exec.Command("git", args...)
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
		return cmd.Output()
	}
	out, err := git("rev-parse", "HEAD")
	if err != nil {
		return "unknown (not a git checkout)"
	}
	c := strings.TrimSpace(string(out))
	if st, err := git("status", "--porcelain", "--untracked-files=no"); err == nil && len(st) > 0 {
		c += "+dirty"
	}
	return c
}

// sourceHash digests every .go file and go.mod under root (skipping the
// build directory), in path order.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
