; The last task writes $4, which is not in its create mask. Nothing
; after it reads $4, so the program is correct: every machine retires
; the tasks of the sequential walk and halts with $4 = 8, as the scalar
; binary does. The oracle used to compare the processor's final
; registers, which are the last task's forwarded view; that view only
; tracks created registers, still held $4 = 0, and the oracle reported
; "diverged: ms1: register $4 is 0x0, scalar has 0x8".
;
; The differential oracle must validate this `ok`.
.text
main:
.task targets=B create=$2
A:
    li    $2, 7
    b!s   B
.task targets=halt create=
B:
    addiu $4, $2, 1
    halt
