package server

import (
	"bytes"
	"errors"
	"fmt"
	"math"
)

// Sessions is the sessions field of a release request: one array of
// integer states per session, e.g. [[0,1,0],[1,1]].
//
// It decodes without reflection. encoding/json still reads the request
// envelope and checks the syntax of the whole body before it hands this
// field's bytes to UnmarshalJSON, which then reads the integers
// straight into one slab sized by the field's comma count (an upper
// bound on its integers) and cuts each session from it with a full
// slice expression, so an append to one session never writes into the
// next.
//
// It accepts what decoding into [][]int accepts, except that a null
// session or element is an error rather than a silent 0 or a value
// left over from an earlier duplicate key. An integer must parse with
// strconv.ParseInt(s, 10, 64) and fit an int: a fraction, an exponent,
// a string, a bool, an object or a deeper array is an error that names
// its position. A null field decodes to nil, [] to an empty non-nil
// slice and [[]] to one empty session.
type Sessions [][]int

var (
	errSessionsShape = errors.New("sessions: want an array of integer arrays")
	errNotInteger    = errors.New("want an integer")
	errIntRange      = errors.New("integer out of range")
)

// UnmarshalJSON implements json.Unmarshaler.
func (s *Sessions) UnmarshalJSON(data []byte) error {
	data = trimJSONSpace(data)
	if string(data) == "null" {
		*s = nil
		return nil
	}
	if len(data) == 0 || data[0] != '[' {
		return errSessionsShape
	}
	// Only a string can hold commas and brackets that are not structure,
	// and the scan refuses a string at its opening quote, so the sizes
	// come from the bytes before the first quote: a string full of
	// brackets must not size a slab the body's integers never fill.
	head := data
	if q := bytes.IndexByte(data, '"'); q >= 0 {
		head = data[:q]
	}
	slab := make([]int, 0, bytes.Count(head, []byte{','})+1)
	rows := make([][]int, 0, bytes.Count(head, []byte{'['})-1)
	i := skipJSONSpace(data, 1)
	if byteAt(data, i) == ']' {
		i++
	} else {
		for {
			if byteAt(data, i) != '[' {
				return fmt.Errorf("sessions[%d]: want an array of integers", len(rows))
			}
			start := len(slab)
			if i = skipJSONSpace(data, i+1); byteAt(data, i) == ']' {
				i++
			} else {
				for {
					n, end, err := scanJSONInt(data, i)
					if err != nil {
						return fmt.Errorf("sessions[%d][%d]: %w", len(rows), len(slab)-start, err)
					}
					slab = append(slab, n)
					if i = skipJSONSpace(data, end); byteAt(data, i) == ',' {
						i = skipJSONSpace(data, i+1)
						continue
					}
					if byteAt(data, i) != ']' {
						return fmt.Errorf("sessions[%d]: want an array of integers", len(rows))
					}
					i++
					break
				}
			}
			rows = append(rows, slab[start:len(slab):len(slab)])
			if i = skipJSONSpace(data, i); byteAt(data, i) == ',' {
				i = skipJSONSpace(data, i+1)
				continue
			}
			if byteAt(data, i) != ']' {
				return errSessionsShape
			}
			i++
			break
		}
	}
	if i != len(data) {
		return errSessionsShape
	}
	*s = rows
	return nil
}

// byteAt returns data[i], or 0 past the end of data.
func byteAt(data []byte, i int) byte {
	if i < len(data) {
		return data[i]
	}
	return 0
}

// skipJSONSpace returns the index of the first byte of data at or after
// i that is not JSON whitespace.
func skipJSONSpace(data []byte, i int) int {
	for i < len(data) && isJSONSpace(data[i]) {
		i++
	}
	return i
}

func isJSONSpace(c byte) bool {
	return c == ' ' || c == '\n' || c == '\r' || c == '\t'
}

func trimJSONSpace(data []byte) []byte {
	for len(data) > 0 && isJSONSpace(data[0]) {
		data = data[1:]
	}
	for len(data) > 0 && isJSONSpace(data[len(data)-1]) {
		data = data[:len(data)-1]
	}
	return data
}

// scanJSONInt reads the JSON number starting at data[i] and returns its
// value and the index past it. It fails unless the number is an
// integer — no fraction, no exponent, no leading zero — that fits an
// int.
func scanJSONInt(data []byte, i int) (n, end int, err error) {
	neg := byteAt(data, i) == '-'
	limit := uint64(math.MaxInt)
	if neg {
		i++
		limit++
	}
	start := i
	var u uint64
	for ; i < len(data) && '0' <= data[i] && data[i] <= '9'; i++ {
		d := uint64(data[i] - '0')
		if u > (limit-d)/10 {
			return 0, i, errIntRange
		}
		u = u*10 + d
	}
	switch c := byteAt(data, i); {
	case i == start, i-start > 1 && data[start] == '0', c == '.', c == 'e', c == 'E':
		return 0, i, errNotInteger
	case neg:
		return -int(u), i, nil
	}
	return int(u), i, nil
}
