; `b` assembles to `beq $0, $0`, which every register value takes, so
; `b!s C` leaves its task only to C and its fall-through never runs.
; The checker used to list the dead fall-through as an exit and reject
; the program because it is not among the descriptor targets, although
; every machine runs it as the scalar reference does.
;
; `ms-cfg::check_program` must accept this.
.data
out: .space 8

.text
main:
.task targets=C create=$2
A:
    li!f  $2, 7
    b!s   C
    li    $2, 9
.task targets=halt create=$9
C:
    la    $9, out
    sd    $2, 0($9)
    halt
