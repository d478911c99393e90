package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// clockTick is the unit of utime/stime in /proc/<pid>/stat (USER_HZ, which
// Linux fixes at 100 for every architecture's userspace ABI).
const clockTick = 10 * time.Millisecond

// parseStatCPU returns user+system CPU from the contents of /proc/<pid>/stat.
// The command name (field 2) is parenthesized and may hold spaces or ')', so
// fields are counted from the last ')'.
func parseStatCPU(stat string) (time.Duration, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("stat: no command name")
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("stat: %d fields after the command name", len(f))
	}
	ut, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stat utime: %w", err)
	}
	st, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stat stime: %w", err)
	}
	return time.Duration(ut+st) * clockTick, nil
}

// parseVmHWM returns the peak resident set from /proc/<pid>/status, in MB.
func parseVmHWM(status string) (float64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("status: malformed VmHWM line %q", line)
		}
		kb, err := strconv.ParseUint(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("status VmHWM: %w", err)
		}
		return float64(kb) / 1024, nil
	}
	return 0, fmt.Errorf("status: no VmHWM line")
}

func procCPU(pid string) (time.Duration, error) {
	b, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(b))
}

func procHWM(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	return parseVmHWM(string(b))
}

// processCPU is this process's user+system CPU over all threads.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// threadCPU is the calling OS thread's CPU time; callers lock the
// goroutine to its thread first.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// fingerprint identifies the host and build a result was measured on. Two
// results are comparable only when every field but Commit matches.
type fingerprint struct {
	CPUModel         string `json:"cpu_model"`
	NProc            int    `json:"nproc"`
	ServerGOMAXPROCS int    `json:"server_gomaxprocs"`
	DriverGOMAXPROCS int    `json:"driver_gomaxprocs"`
	GoVersion        string `json:"go_version"`
	StateFS          string `json:"state_fs"`
	Commit           string `json:"commit"`
}

// mismatches lists the fields that differ between two fingerprints,
// ignoring Commit (comparing two commits is the point).
func (a fingerprint) mismatches(b fingerprint) []string {
	var out []string
	add := func(name string, x, y any) {
		if x != y {
			out = append(out, fmt.Sprintf("%s %v vs %v", name, x, y))
		}
	}
	add("cpu_model", a.CPUModel, b.CPUModel)
	add("nproc", a.NProc, b.NProc)
	add("server_gomaxprocs", a.ServerGOMAXPROCS, b.ServerGOMAXPROCS)
	add("driver_gomaxprocs", a.DriverGOMAXPROCS, b.DriverGOMAXPROCS)
	add("go_version", a.GoVersion, b.GoVersion)
	add("state_fs", a.StateFS, b.StateFS)
	return out
}

func hostFingerprint(stateDir string, serverProcs int) fingerprint {
	return fingerprint{
		CPUModel:         cpuModel(),
		NProc:            runtime.NumCPU(),
		ServerGOMAXPROCS: serverProcs,
		DriverGOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:        runtime.Version(),
		StateFS:          fsType(stateDir),
		Commit:           commitID(),
	}
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

// fsType names the filesystem holding dir from its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x58465342: "xfs", 0x9123683E: "btrfs", 0x01021994: "tmpfs",
		0x794C7630: "overlayfs", 0x2FC12FC1: "zfs", 0x6969: "nfs", 0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// commitID is the checkout's git HEAD when .git is present, and otherwise a
// hash of the Go sources, so a result still names the code it measured in a
// checkout that is not a repository.
func commitID() string {
	if head, err := os.ReadFile(".git/HEAD"); err == nil {
		h := strings.TrimSpace(string(head))
		ref, isRef := strings.CutPrefix(h, "ref: ")
		if !isRef {
			return h
		}
		if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
			return strings.TrimSpace(string(b))
		}
		if b, err := os.ReadFile(".git/packed-refs"); err == nil {
			for _, line := range strings.Split(string(b), "\n") {
				if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
					return sha
				}
			}
		}
	}
	var files []string
	filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", p, len(b))
		h.Write(b)
	}
	return "tree:" + hex.EncodeToString(h.Sum(nil))[:16]
}
