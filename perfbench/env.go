package main

import (
	"fmt"
	"runtime"
	"syscall"
)

// environment is recorded in every report so numbers are read against the
// machine that produced them.
type environment struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Scale      float64 `json:"scale"`
	// Rate is twitter-serve's fixed open-loop arrival rate (requests/s).
	Rate float64 `json:"twitter_serve_rate"`
	// FlushPolicy is the WAL sync policy of the durable workload.
	FlushPolicy string `json:"flush_policy"`
	// WALFilesystem is the filesystem type of the directory the WAL
	// directories are created in.
	WALFilesystem string `json:"wal_filesystem"`
	Latency       string `json:"latency"`
}

func probeEnvironment(cfg config) environment {
	return environment{
		NumCPU:        runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		GoVersion:     runtime.Version(),
		Seed:          cfg.seed,
		Seconds:       cfg.seconds.Seconds(),
		Scale:         cfg.scale,
		Rate:          cfg.rate,
		FlushPolicy:   "always (group-committed fsync before every acknowledgement)",
		WALFilesystem: filesystemType(cfg.out),
		Latency:       "measured in this sandbox (a shared container on a multi-tenant host), not on a dedicated device",
	}
}

func (e environment) String() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d %s seed=%d scale=%g twitter-serve-rate=%g/s flush=always wal-fs=%s; latency is this sandbox's, not a device's",
		e.NumCPU, e.GOMAXPROCS, e.GoVersion, e.Seed, e.Scale, e.Rate, e.WALFilesystem)
}

// filesystemType names the filesystem holding dir, from statfs's magic.
func filesystemType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown (" + err.Error() + ")"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	default:
		return fmt.Sprintf("statfs-magic-%#x", uint64(st.Type))
	}
}
