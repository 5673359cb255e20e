package obs

// Build provenance: chirond exposes what binary is serving, and run
// manifests pin what binary produced a results directory. Everything
// comes from runtime/debug.ReadBuildInfo so there is no ldflags
// ceremony — module version, VCS revision and toolchain ride along in
// the binary already.

import (
	"runtime"
	"runtime/debug"
)

// BuildInfo is the provenance triple stamped into chiron_build_info and
// run-manifest.json.
type BuildInfo struct {
	Version   string `json:"version"`                // main module version ("(devel)" for local builds)
	GoVersion string `json:"go_version"`             // toolchain that built the binary
	Revision  string `json:"vcs_revision,omitempty"` // VCS commit, when stamped
	Modified  bool   `json:"vcs_modified,omitempty"` // dirty working tree at build time
}

// ReadBuild returns the current binary's build info. Fields degrade to
// best-effort values when debug info is unavailable (e.g. test
// binaries): GoVersion always comes from runtime.Version.
func ReadBuild() BuildInfo {
	b := BuildInfo{Version: "unknown", GoVersion: runtime.Version()}
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return b
	}
	if info.Main.Version != "" {
		b.Version = info.Main.Version
	}
	if info.GoVersion != "" {
		b.GoVersion = info.GoVersion
	}
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			b.Revision = s.Value
		case "vcs.modified":
			b.Modified = s.Value == "true"
		}
	}
	return b
}

// RegisterBuildInfo emits the conventional info-style gauge
//
//	chiron_build_info{version="(devel)",go_version="go1.22.x"} 1
//
// on reg and returns the info it stamped.
func RegisterBuildInfo(reg *Registry) BuildInfo {
	b := ReadBuild()
	kv := []string{"version", b.Version, "go_version", b.GoVersion}
	if b.Revision != "" {
		kv = append(kv, "revision", b.Revision)
	}
	reg.Gauge("chiron_build_info"+Labels(kv...),
		"build provenance; value is always 1").Set(1)
	return b
}
