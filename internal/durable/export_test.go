package durable

import (
	"os"
	"path/filepath"

	"repro/internal/qrm"
)

// JournalLegacyQRMJob writes a Q record through the internal journal, in
// the shape single-device managers used to journal: the legacy-replay test
// builds an old data directory with it.
func (s *Store) JournalLegacyQRMJob(j qrm.Job, node string, submitUnixMs int64) uint64 {
	return s.journal(recLegacyQRMJob, legacyQRMRecord{
		SubmitUnixMs: submitUnixMs, Job: &legacyQRMJob{Job: j, Node: node},
	}, nil)
}

// RecordKinds counts the records of each kind in dir's snapshot and
// journal segments.
func RecordKinds(dir string) (map[byte]int, error) {
	names := []string{snapshotName}
	seqs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	for _, seq := range seqs {
		names = append(names, segmentName(seq))
	}
	kinds := map[byte]int{}
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if os.IsNotExist(err) {
			continue
		} else if err != nil {
			return nil, err
		}
		readFrames(data, func(_ uint64, payload []byte) {
			if len(payload) > 0 {
				kinds[payload[0]]++
			}
		})
	}
	return kinds, nil
}
