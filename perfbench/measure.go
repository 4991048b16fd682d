package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// --- summary statistics ---

// percentile returns the q-th percentile (0..100) of xs by linear
// interpolation between closest ranks. xs need not be sorted.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tail returns the sample with exactly ten samples above it and the
// percentile it sits at: the highest percentile the sample supports with
// at least ten samples beyond it. With ten samples or fewer it returns
// the maximum.
func tail(xs []float64) (q, v float64) {
	n := len(xs)
	if n <= 10 {
		return 100, percentile(xs, 100)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return 100 * float64(n-10) / float64(n), s[n-11]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// --- process resources ---

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// --- provenance ---

// provenance identifies the program and host a result came from, so a
// number measured elsewhere is recognizable as such.
type provenance struct {
	Command       string `json:"command"`
	Seed          int64  `json:"seed"`
	GitCommit     string `json:"git_commit"`
	GoVersion     string `json:"go_version"`
	NProc         int    `json:"nproc"`
	CPUModel      string `json:"cpu_model"`
	Kernel        string `json:"kernel"`
	CgroupVersion string `json:"cgroup_version"`
	StateFS       string `json:"state_dir_fs"`
}

func collectProvenance(args []string, seed int64) provenance {
	return provenance{
		Command:       strings.Join(append([]string{"perfbench"}, args...), " "),
		Seed:          seed,
		GitCommit:     gitCommit(".."),
		GoVersion:     runtime.Version(),
		NProc:         runtime.NumCPU(),
		CPUModel:      cpuModel(),
		Kernel:        readTrim("/proc/sys/kernel/osrelease"),
		CgroupVersion: describeCgroups(),
		StateFS:       fsType(stateRoot()),
	}
}

// gitCommit resolves HEAD of the repository containing dir (or dir's
// parent) by reading .git directly; a checkout without .git reports so.
func gitCommit(dir string) string {
	for _, d := range []string{".", dir} {
		gitDir := filepath.Join(d, ".git")
		head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
		if err != nil {
			continue
		}
		ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
		if !ok {
			return strings.TrimSpace(string(head))
		}
		if b, err := os.ReadFile(filepath.Join(gitDir, ref)); err == nil {
			return strings.TrimSpace(string(b))
		}
		if b, err := os.ReadFile(filepath.Join(gitDir, "packed-refs")); err == nil {
			for _, line := range strings.Split(string(b), "\n") {
				if f := strings.Fields(line); len(f) == 2 && f[1] == ref {
					return f[0]
				}
			}
		}
		return "unresolved " + ref
	}
	return "unknown (not a git checkout)"
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

func readTrim(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return string(bytes.TrimSpace(b))
}

// describeCgroups names the cgroup hierarchy the control workloads would
// use, without touching it.
func describeCgroups() string {
	if mnt, err := findCPUv1Mount(); err == nil {
		return "v1 (cpu controller at " + mnt + ")"
	}
	if hasCgroup2() {
		return "v2"
	}
	return "none"
}

// fsType names the filesystem holding path, by statfs magic number.
func fsType(path string) string {
	for p := path; ; p = filepath.Dir(p) {
		var st syscall.Statfs_t
		if err := syscall.Statfs(p, &st); err == nil {
			switch uint64(st.Type) {
			case 0xEF53:
				return "ext4"
			case 0x58465342:
				return "xfs"
			case 0x9123683E:
				return "btrfs"
			case 0x01021994:
				return "tmpfs"
			case 0x794C7630:
				return "overlayfs"
			case 0x6969:
				return "nfs"
			default:
				return fmt.Sprintf("magic 0x%x", uint64(st.Type))
			}
		}
		if p == filepath.Dir(p) {
			return "unknown"
		}
	}
}
