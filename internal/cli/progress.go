package cli

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// Progress is the -progress printer: it repaints one status line in
// place, at most ten times a second, as a chunk runner reports progress.
// The command supplies only the line. Chunk runners serialise OnChunk, so
// Progress needs no lock.
type Progress struct {
	out   io.Writer
	line  func(done, total int) string
	last  time.Time
	width int // length of the line on screen, 0 before the first paint
}

// NewProgress returns a printer that paints line(done, total) to out.
func NewProgress(out io.Writer, line func(done, total int) string) *Progress {
	return &Progress{out: out, line: line}
}

// Update is wired as a chunk runner's OnChunk. It skips a repaint within
// 100 ms of the last one, but always paints the final state.
func (p *Progress) Update(done, total int) {
	now := time.Now()
	if done < total && now.Sub(p.last) < 100*time.Millisecond {
		return
	}
	p.last = now
	// Overwrite in place, blanking any leftover tail of a longer line.
	line := p.line(done, total)
	pad := ""
	if n := p.width - len(line); n > 0 {
		pad = strings.Repeat(" ", n)
	}
	p.width = len(line)
	fmt.Fprintf(p.out, "\r%s%s", line, pad)
}

// Finish ends the status line, if one was painted, so that output after
// it starts on a line of its own. A nil Progress does nothing.
func (p *Progress) Finish() {
	if p != nil && p.width > 0 {
		fmt.Fprintln(p.out)
	}
}
