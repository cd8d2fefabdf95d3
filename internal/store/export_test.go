package store

// SnapshotRange returns the LSN a snapshot file covers through and the
// first LSN it retains.
func SnapshotRange(data []byte) (lsn, keep uint64, err error) {
	lsn, keep, _, err = decodeSnapshot(data)
	return lsn, keep, err
}
