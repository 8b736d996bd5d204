package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"repro/internal/snapshot"
)

// stateSection names the one section of the standalone daemon's state
// file — a snapshot-container file ("DSNP" magic, CRC-validated,
// written atomically) whose payload is JSON: the surviving job table
// and the ID counter. Per-job simulation state lives in the runner's
// own checkpoint files; this file only records *which* jobs exist and
// where they stood, so a restarted daemon can re-queue and resume.
const stateSection = "dsasimd.jobs"

// State is the payload of the standalone daemon's state file.
type State struct {
	// NextID is the number of the next job ID to issue.
	NextID uint64   `json:"next_id"`
	Jobs   []JobRow `json:"jobs"`
}

// LoadState reads a standalone daemon's state file: nil, nil when
// there is none, and see ReadState for a bad one.
func LoadState(path string) (*State, error) {
	var st State
	if found, err := ReadState(path, stateSection, &st); !found {
		return nil, err
	}
	return &st, nil
}

// ReadState decodes one JSON section of the state file at path into v.
// A missing file (or an empty path) is a fresh start: found is false
// and err nil. A file that cannot be read, lacks the section or does
// not decode is renamed aside to path+".bad" — never left for the next
// save to overwrite — and reported; the daemon starts fresh.
func ReadState(path, section string, v any) (found bool, err error) {
	if path == "" {
		return false, nil
	}
	rd, err := snapshot.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return false, nil
	}
	if err == nil {
		var payload []byte
		if payload, err = rd.Section(section); err == nil {
			err = json.Unmarshal(payload, v)
		}
	}
	if err != nil {
		quarantine := path + ".bad"
		_ = os.Rename(path, quarantine)
		return false, fmt.Errorf("state file %s unreadable (%w); moved to %s, starting fresh", path, err, quarantine)
	}
	return true, nil
}

// WriteState writes v as the JSON section of a state file,
// crash-consistently (temp file, fsync, rename). epoch stamps the
// container header.
func WriteState(path, section string, epoch uint64, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return err
	}
	w := snapshot.Writer{Epoch: epoch}
	w.Add(section, payload)
	return w.WriteFile(path)
}

// saveLocked writes the daemon's job table. The caller must hold s.mu.
func (s *Server) saveLocked() error {
	if s.cfg.StateFile == "" {
		return nil
	}
	return WriteState(s.cfg.StateFile, stateSection, 0, State{NextID: s.plane.Issued + 1, Jobs: s.plane.Rows()})
}
