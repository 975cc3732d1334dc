package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// provenance fingerprints the machine, the code and the inputs behind a
// result, so a later claim can be re-checked against it.
func provenance(o options) map[string]any {
	bubbledProcs := runtime.NumCPU() // bubbled runs with the Go default
	if v := os.Getenv("GOMAXPROCS"); v != "" {
		bubbledProcs = -1 // inherited override, reported verbatim below
	}
	return map[string]any{
		"workload":           o.workload,
		"seed":               o.seed,
		"seconds":            o.seconds,
		"trace":              o.trace,
		"nproc":              runtime.NumCPU(),
		"gomaxprocs_bench":   runtime.GOMAXPROCS(0),
		"gomaxprocs_bubbled": bubbledProcs,
		"gomaxprocs_env":     os.Getenv("GOMAXPROCS"),
		"cpu_model":          cpuModel(),
		"go_version":         runtime.Version(),
		"kernel":             strings.TrimSpace(readFile("/proc/sys/kernel/osrelease")),
		"commit":             commit(),
		"source_sha256":      sourceDigest("."),
	}
}

func readFile(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return string(b)
}

func cpuModel() string {
	for _, line := range strings.Split(readFile("/proc/cpuinfo"), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the code under test: BENCH_COMMIT when the caller sets it,
// else git's HEAD when the working directory is the top of a repository,
// else "unknown" — the source digest identifies the code either way.
func commit() string {
	if v := os.Getenv("BENCH_COMMIT"); v != "" {
		return v
	}
	out, err := exec.Command("git", "rev-parse", "--show-toplevel", "HEAD").Output()
	wd, werr := os.Getwd()
	if err != nil || werr != nil {
		return "unknown"
	}
	lines := strings.Fields(string(out))
	if len(lines) != 2 || filepath.Clean(lines[0]) != filepath.Clean(wd) {
		return "unknown"
	}
	return lines[1]
}

// sourceDigest hashes the Go sources and module files under root, in path
// order, skipping build and output directories.
func sourceDigest(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		h.Write([]byte(p))
		h.Write([]byte{0})
		h.Write([]byte(readFile(p)))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}
