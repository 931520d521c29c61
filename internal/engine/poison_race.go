//go:build race

package engine

// poisonByte fills a read buffer Origins keeps once its stream ends.
const poisonByte = 0xA5

// poison overwrites b with poisonByte, so a record reference that escaped
// its stream fails the differential tests instead of reading another
// query's bytes.
func poison(b []byte) {
	for i := range b {
		b[i] = poisonByte
	}
}
