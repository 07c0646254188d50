"""The random stream behind poisson departures: PCG64, seeded by the
SeedSequence hash of a list of integers, drawing exponentials from a
256-layer ziggurat.

``exponentials(seed_words(entropy), scale)`` yields the stream's draws of
``scale`` times a standard exponential, one at a time.  The stream is part
of this package, so no installed library can change a run.
"""

# Attribution: this module is a bit-exact port of numpy.random's
# SeedSequence.generate_state(4, uint64), PCG64 and
# Generator.exponential(scale), as of numpy 2.4, which the tests use as
# the oracle; _TABLES holds numpy's fe_double, we_double and ke_double
# (numpy/random/src/distributions/ziggurat_constants.h) verbatim.
# numpy.random is distributed under this notice:
#
# Copyright (c) 2005-2025, NumPy Developers.
# Copyright (c) 2019 Kevin Sheppard.
# All rights reserved.
#
# Redistribution and use in source and binary forms, with or without
# modification, are permitted provided that the following conditions are
# met:
#
# 1. Redistributions of source code must retain the above copyright
#    notice, this list of conditions and the following disclaimer.
# 2. Redistributions in binary form must reproduce the above copyright
#    notice, this list of conditions and the following disclaimer in the
#    documentation and/or other materials provided with the distribution.
# 3. Neither the name of the copyright holder nor the names of its
#    contributors may be used to endorse or promote products derived from
#    this software without specific prior written permission.
#
# THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
# "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
# LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
# A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
# OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
# SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
# LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
# DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
# THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
# (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
# OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.

from __future__ import annotations

import operator
import struct
from binascii import a2b_base64
from math import exp, log1p
from typing import Iterable, Iterator

_M32 = 0xFFFFFFFF
_M64 = 0xFFFFFFFFFFFFFFFF
_M128 = (1 << 128) - 1

# SeedSequence's hash constants.
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16

_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

_ZIGGURAT_EXP_R = 7.69711747013104972  # where the base layer's tail begins

# fe_double[256], we_double[256] (little-endian doubles) and ke_double[256]
# (little-endian uint64), back to back; base64 keeps the source compact,
# since a fresh interpreter without cached bytecode compiles it on start.
_TABLES = a2b_base64(
    b"AAAAAAAA8D83EYjlRQXuP/H/gVCm0Ow/J3vrewDl6z8qf+YODyHrP+f6YqW6duo/m21VFZfe6T85qlXEMVTpPy/S"
    b"03aj1Og/uMUGeOhd6D8mMSQtiu7nP37UCZtuhec/Y0upW7sh5z/GGIRJw8LmPwZcT236Z+Y/Zq+nwe0Q5j91rExp"
    b"Pb3lP3OH2oKYbOU/mol4Fboe5T+v+FHBZtPkP2ngjvtqiuQ/JeGor5lD5D+Ai7Ery/7jPxTR4UTcu+M/2d0Ip616"
    b"4z8YYw5FIzvjP17aReMj/eI/JE8ftpjA4j+9MhERbYXiP6NQjCKOS+I/yD6BuuoS4j+Je4cZc9vhPyU7HscYpeE/"
    b"7m/Obc5v4T+cFjO8hzvhP43DHEo5COE/Kx4rgdjV4D8q0FSIW6TgP3077jG5c+A/SGXS6+hD4D8k82Cx4hTgP3ZF"
    b"If49zd8/+sW/ji1y3z9NQuvRhhjfP5Cdlks9wN4/UdN9NkVp3j/8N+F1kxPePwwhp4gdv90/eu25fdlr3T8LGn7p"
    b"vRndP5LgQNzByNw/YPuD2dx43D+DpQ7QBircP7XurhI43Ns/iAuZUWmP2z9vgFSUk0PbP1/vKDSw+No/5fb91riu"
    b"2j9AAaNqp2XaP/QhdSB2Hdo/kjdaaR/W2T+oewnynY/ZPxCBmp/sSdk/BF1UjAYF2T85XbcE58DYP4w/vISJfdg/"
    b"OGFEtek62D9ZzrZpA/nXPx6Axp3St9c/43Jec1N31z/qjbAwgjfXP52eZD5b+NY/nOnkJdu51j+fDcaP/nvWP+Qn"
    b"SELCPtY/dljvHyMC1j9s7jEmHsbVP++pOmywitU/56O9IddP1T/1id6NjxXVPx35Jg7X29Q/09qLFaui1D/vvoAr"
    b"CWrUP+JBGOvuMdQ/TqEwAlr60z+FsqswSMPTP+99sUe3jNM/3dD8KKVW0z81JDHGDyHTP3BCOSD169I/YiKuRlO3"
    b"0j8pdkVXKIPSP/12R31yT9I//34L8S8c0j/bCXv3XunRP1q8muH9ttE/ghkZDAuF0T/vkeLehFPRP7qfusxpItE/"
    b"bKbZUrjx0D8zU4/4bsHQPxM+6U6MkdA/0pBd8A5i0D8sfHmA9TLQP2pHk6s+BNA/VJP/TNKrzz9+PpZc50/PP5vg"
    b"6A+69M4/8kBZAEiazj+ngy/WjkDOPzlPIkiM580/uO7jGj6PzT/9MbQgojfNP5/Q9ji24Mw/AhjOT3iKzD/ur7ld"
    b"5jTMPzVEOWf+38s/peRyfL6Lyz8+79y4JDjLPwtb60Iv5co/STzAS9ySyj+8XN8OKkHKPxLF5NEW8Mk/IxY+5KCf"
    b"yT+hkuaexk/JP3m7JWSGAMk/1WJQn96xyD/5GozEzWPIP+bnlFBSFsg/rhuFyGrJxz/+Rp+5FX3HPzkoGrlRMcc/"
    b"6oTuYx3mxj8o2qZed5vGP6zRMFVeUcY/MWqw+tAHxj+2wlQJzr7FP/V4LkJUdsU/SYwHbWIuxT/6tjxY9+bEP5Yw"
    b"mNgRoMQ/xswtybBZxD+aajgL0xPEPwWp+IV3zsM/ydWUJp2Jwz+vDPrfQkXDP259vqpnAcM/NM8EhQq+wj9AmWBy"
    b"KnvCP3jou3vGOMI/Zco9r932wT9m1jEgb7XBP3iu8OZ5dME/L3HJIP0zwT8gF+zv9/PAPy+2VHtptMA/vqW37lB1"
    b"wD8Ef256rTbAP43qy6b88L8/FAQZZoV1vz88w4Ou8/q+P8y5jgRGgb4/+7ph9XoIvj+Yk60WkZC9P9dNkQaHGb0/"
    b"V/2Aa1ujvD+vEC70DC68P48mcVeaubs/SGU1VAJGuz9lVGWxQ9O6P7c42T1dYbo/KPRG0E3wuT9wazNHFIC5P7l0"
    b"5YivELk/O1Nagx6iuD+6xDssYDS4P/Om14Bzx7c/HjwZhldbtz+2FoRIC/C2PyC2MNyNhbY/997KXN4btj8+u5Ht"
    b"+7K1PzbQWbnlSrU/KdmQ8prjtD9cmEPTGn20Pw6xJZ1kF7Q/np+bmXeysz8Y58YZU06zP9GNlHb26rI/cAXOEGGI"
    b"sj+MnSxRkiayP0Cjb6iJxbE/klN1j0ZlsT9QylaHyAWxPzsbhxkPp7A/F8j11xlJsD92lmm60NevPzToRJn0Hq8/"
    b"5bIupZ5nrj8QWDFJzrGtP0p5HgOD/aw/6SEHZLxKrD+F2b4QepmrP4SAasK76ao/OPEbR4E7qj9MfHuCyo6pP213"
    b"gG6X46g/azk6HOg5qD+eCKu0vJGnP1KvtnkV66Y/QaAmx/JFpj/K0sUTVaKlP+vFlvI8AKU/GWsmFKtfpD//GP9H"
    b"oMCjP64UP34dI6M/DMBWySOHoj/UEvNftOyhP6GzGZ/QU6E/UdZ8DHq8oD/u+g1ZsiagP5CYr8f2JJ8/aHRReq7/"
    b"nT8MGzNUkN2cP3BY+lChvps/m06S5uaimj9IKhMPZ4qZP2eZ7FModZg/lvyH2jFjlz93QKJyi1SWP1ECq6Y9SZU/"
    b"vvCHzlFBlD+EXTEl0jyTPzI6ueHJO5I/X19yVEU+kT/wAh4JUkSQP87Hid79m44/VyduFLm2jD8tyUJV+tiKP72n"
    b"j2jqAok/9XSq5rY0hz/LFuQLk26FP2JvUcG4sIM/cXaz7Wn7gT/5118p8k6AP8VddPpRV30/NkiX1Okjej8gNuw3"
    b"nwR3P/0i486X+nM/Q0BXaT0HcT8RS82Bs1hsP//+ofOI2GY/JKPhqGuUYT8lPgxUtStZP7n8jfcKsk8/SwufMhzD"
    b"PT/BXb+U7GTRPBlBXYudWGA8K01bSbLWajy6jVupNZNxPHMqSuXmInU8gHrC+5BQeDzMt3nv0Th7PJi9bbfY7H08"
    b"PFzGSfA7gDxw9tYk23CBPDMm2pACmII8ym49/oizgzwh/gvGFcWEPMNKAp34zYU8vSun8EDPhjwZ0BfazcmHPG9g"
    b"01RZvog80jciVYCtiTwDUl2+yJeKPMSj3d2lfYs8iT+M13tfjDw2fPFNoj2NPFpz8XhmGI48qk9fzwzwjjwJMmhd"
    b"0sSPPFh1au12S5A8/ICbR0izkDyv9UmH8xmRPKDfS+uMf5E850k+6SbkkTwu/zhl0keSPAtoI+GeqpI8S9ompZoM"
    b"kzwCgm3i0m2TPKBiIdFTzpM8SGdwyigulDwS5zVfXI2UPJMLzWv465Q8TW94KQZKlTz9vrg9jqeVPM8u3ceYBJY8"
    b"4GgMbS1hljxEqfpiU72WPLuQeXkRGZc8c3kHI250lzxygX58b8+XPJnV/lMbKpg87OErL3eEmDwqxdBQiN6YPESi"
    b"/b1TOJk8OBOtQt6RmTy/A/91LOuZPEqIFL5CRJo8YdKWUyWdmjzJJPJE2PWaPJuXTHlfTps8iY8/s76mmzyZ/lmT"
    b"+f6bPJ/ScJoTV5w821rCKxCvnDz75vCO8gadPI1r2PG9Xp08V5BCanW2nTz+MXz3Gw6ePEQQz4O0ZZ48Yhvi5UG9"
    b"njyflALixhSfPLX+VytGbJ88oakEZcLDnzzZPJoRnw2gPGKxDfZdOaA8+HZyHB9loDxyAEu745CgPDcBcQOtvKA8"
    b"Zi96IHzooDwVrBc5UhShPL59cG8wQKE8+3934RdsoTyWIz2pCZihPINSPd0GxKE84sSpkBDwoTwFDrHTJxyiPCmj"
    b"wrNNSKI8nxjQO4N0ojyqzYt0yaCiPF07pWQhzaI8IRcDEYz5ojwRdvt8CiajPKEbiqqdUqM88BqFmkZ/ozz8789M"
    b"BqyjPG0zjcDd2KM8xAlP9M0FpDzQbEbm1zKkPKdscZT8X6Q8xIPI/DyNpDykGGsdmrqkPOpFy/QU6KQ8+wDZga4V"
    b"pTz4tSzEZ0OlPCdvMbxBcaU8+ZxOaz2fpTw1kxHUW82lPCbPVvqd+6U8Lhpz4wQqpjyMm1yWkVimPO7r0xtFh6Y8"
    b"3zyNfiC2pjwIplnLJOWmPPupUBFTFKc8HAT6YaxDpzww0XfRMXOnPAoksXbkoqc89xd9a8XSpzx3cs7M1QKoPCrm"
    b"37oWM6g85whhWYljqDxUD6TPLpSoPJRgzEgIxag8ExX+8xb2qDzhc44EXCepPIqCNbLYWKk89LtAOY6KqTxdA8fa"
    b"fbypPFHp3dyo7qk8LVnQihAhqjyQxlY1tlOqPA/z0DKbhqo8emWB38C5qjz/rMqdKO2qPLWLbtbTIKs8QiXP+MNU"
    b"qzy2TzJ7+oirPBAmB9t4vas8hf0tnUDyqzwt4EJOUyesPKSx6oKyXKw8+yMj2F+SrDxspZXzXMisPIBx7YOr/qw8"
    b"rfIwQU01rTz+ox7tQ2ytPAqljVORo608fzXSSjfbrTybUCa0NxOuPFKkFnyUS648fyP0mk+Erjx4dkoVa72uPGiR"
    b"W/zo9q48f7ygbsswrzzQXlGYFGuvPOXh77PGpa882AndCuTgrzzUEfl6Nw6wPBs5Ee80LLA8oySSnmtKsDzbJhHP"
    b"3GiwPA+tOs+Jh7A8Gcgz93OmsDxvlACpnMWwPLfP71AF5bA8zu8LZq8EsTxKFZJqnCSxPCs6b+zNRLE8wQTEhUVl"
    b"sTyerm/dBIaxPCB4oqcNp7E8Wip4pmHIsTxwM5uqAuqxPKL08JPyC7I8UOVPUjMusjy6O0DmxlCyPKbax2Gvc7I8"
    b"K1NC6e6WsjxR20W0h7qyPHAtlg583rI8ZVkmWc4CszzQpyoLgSezPGXJO7OWTLM8VqiM+BFyszxDUTSc9ZezPIOL"
    b"jXpEvrM80N6tjAHlszyt7vXpLwy0PPhCvcnSM7Q8LMkbhe1btDwylNOYg4S0PEyhXaeYrbQ8J7EcezDXtDwIlbkI"
    b"TwG1PLKqrHH4K7U8Wqf4BjFXtTxhRBtM/YK1PAfhOPphr7U8nr2IA2TctTx5GAiXCAq2PJQueyRVOLY8MvTDYE9n"
    b"tjzuSJdK/Za2PB57mi9lx7Y8ByX0sY34tjwY0lzOfSq3PMNxveI8Xbc8+XFrtdKQtzzTdhR9R8W3PBIUbumj+rc8"
    b"w77ALPEwuDxCc2gGOWi4PKtbac6FoLg8lTY7guLZuDxEdfPSWhS5PA4q/DT7T7k82BqN8dCMuTzq2SQ66sq5PHjx"
    b"ST5WCro8O0zoQyVLujzqhq3CaI26PMRF2IIz0bo8CrYDwJkWuzwP6pFQsV27PF7adtKRprs8d+9L3lTxuzyn4MJB"
    b"Fj68PPTIyEL0jLw8f6ny7A/evDzFOCdrjTG9POw77G+Uh708n/FOr1DgvTxgCRlu8ju+PMGD8yqvmr48SupQZ8L8"
    b"vjyn95GXbmK/POXG9kP+y788Luxis+IcwDzvjvWLEVbAPE6ly83BkcA8oEhdeDHQwDymkkMDqBHBPCpEdWd4VsE8"
    b"1sKzvAOfwTx8+smgvOvBPJ+RWbYrPcI8papJrvWTwjzwEUSK4/DCPF73zCfuVMM8YbjIx07BwzxiE+RmlzfEPNFR"
    b"R83XucQ89nPPPNhKxTzSE3Pheu7FPHK/S21nqsY8L8bq1lCHxzwZ7fLmn5PIPIV7SA3c6ck8/HHaUZ7DyzyDu34p"
    b"2cnOPMaXJCcUUhwAAAAAAAAAAAB+MZzXW30TABA8P471bhgArrAOMrebGgB8RBn3J9EbABpliA8dlRwAcjlcLf4b"
    b"HQCyGGvVW34dAHAsF900yR0AyJ2s3wkEHgA2eNRxezMeAKK3fBeLWh4AbARvCUJ7HgA+rgivDZceAJ7wTrH1rh4A"
    b"VmW0B73DHgDOmYfw9tUeAIhWbq4U5h4A0Bw2ym70HgCk1N12SwEfALaWpxPjDB8AevfxaWMXHwBwJUUM8iAfAHSo"
    b"URmuKR8AMlW5j7ExHwAGwVdREjkfAExpbuviPx8A+ojXMjNGHwAOOh2/EEwfACIzXEyHUR8AwOzDCaFWHwCWmQnZ"
    b"ZlsfAIzQEILgXx8AcldE3RRkHwB4loX2CWgfAOYCKyrFax8A9OQyPUtvHwA68ZBxoHIfANYJTZfIdR8AwFwEG8d4"
    b"HwD0P0ESn3sfAIqfB0ZTfh8AOBHiO+aAHwBika09WoMfABK5VmCxhR8AYkKyie2HHwD6dJN1EIofAKw5PbobjB8A"
    b"StBFzBCOHwAWPgEC8Y8fAOBYg5a9kR8A2K9HrHeTHwDaZItPIJUfAJI4Y3i4lh8AkoiWDEGYHwCAukbhupkfAAB/"
    b"abwmmx8AenEbVoWcHwAC2M9Z150fAM6hYWcdnx8AwDYJFFigHwA4Mzrrh6EfAPzEa2+toh8AggbOGsmjHwCiau5f"
    b"26QfAHwJTarkpR8AgmfkXuWmHwDEHqXc3acfAHSo5nzOqB8A7l/Ok7epHwBYuK1wmaofADKCWF50qx8AhAV0o0is"
    b"HwDon7+CFq0fAMCCVzverR8AbB3yCKCuHwB+sBgkXK8fABJ6W8ISsB8A9N+BFsSwHwD68bZQcLEfADqWsp4Xsh8A"
    b"SqjfK7qyHwAYTn8hWLMfAAy+yabxsx8A1qwM4Ya0HwD8k8fzF7UfAKr9xQCltR8AWP43KC62HwAKAcmIs7YfAJgH"
    b"tT81tx8AqH3caLO3HwAIutYeLrgfAPZHA3uluB8AdA+alRm5HwAEcrqFirkfACZveWH4uR8AhuLuPWO6HwAW7EEv"
    b"y7ofAESRtEgwux8A4qSunJK7HwCeAsg88rsfAJQp0jlPvB8A1EDho6m8HwCej1SKAb0fAJxy3vtWvR8AataLBqq9"
    b"HwBAP8u3+r0fAN5kcxxJvh8AXmnJQJW+HwAosYYw374fAHRh3vYmvx8A4oqCnmy/HwDEBKkxsL8fALD9D7rxvx8A"
    b"iEUCQTHAHwCyVFvPbsAfACYUi22qwB8AimmZI+TAHwBkiin5G8EfAEIZffVRwR8ASg93H4bBHwC0dJ59uMEfAELq"
    b"IBbpwR8A3gXV7hfCHwD+gzwNRcIfAMJPhnZwwh8ADmOQL5rCHwBGgOk8wsIfALTG0qLowh8A7CJBZQ3DHwAOnN6H"
    b"MMMfAMZ+Cw5Swx8A+Gbf+nHDHwCGKCpRkMMfAPqXdBOtwx8ASDMBRMjDHwBAq8zk4cMfAKhNjvf5wx8AYFC4fRDE"
    b"HwBo/Xd4JcQfAMa/teg4xB8AKhEVz0rEHwDoR/QrW8QfAARFbP9pxB8AsgFQSXfEHwC4+ysJg8QfAPZ/RT6NxB8A"
    b"GtKZ55XEHwCwMN0DncQfADK0eZGixB8A/AeOjqbEHwCM++v4qMQfAJ7qFs6pxB8ANPpBC6nEHwCgKE6tpsQfAHQu"
    b"yLCixB8A4i3mEZ3EHwD0LYXMlcQfAMBeJtyMxB8AeiPsO4LEHwDm3pbmdcQfAIJ+gdZnxB8ANsCdBVjEHwAgLnBt"
    b"RsQfAJjLCwczxB8ADm4Nyx3EHwD2u5axBsQfAGLLSLLtwx8APFk+xNLDHwC0kQXetcMfAExhmfWWwx8AkkVaAHbD"
    b"HwBwkwbzUsMfABgossEtwx8AiHi9XwbDHwBi8su/3MIfAJ6fudOwwh8A8PyPjILCHwBk8XnaUcIfAJ7Ttqwewh8A"
    b"VmeM8ejBHwA8uzeWsMEfABDN3IZ1wR8AttZ0rjfBHwAUJLv29sAfAKRNGEizwB8A8K+LiWzAHwBk85KgIsAfALhy"
    b"D3HVvx8Ajkgp3YS/HwAKxi/FML8fAMYMdwfZvh8A2n0ygH2+HwAUpksJHr4fAAhENXq6vR8AJvi5p1K9HwAaIMZj"
    b"5rwfAORNLH11vB8Aqrdjv/+7HwCi5j/yhLsfAIzRoNkEux8ArHAaNX+6HwAYtpK/87kfAPyr1C5iuR8AFkoXM8q4"
    b"HwBUW3Z2K7gfAFyJW5yFtx8AlFXVQNi2HwBCadn3IrYfAOA3b0xltR8A0mm/v560HwBG5wPIzrMfAD6cU8/0sh8A"
    b"UihEMhCyHwAEllo+ILEfAMLhQjAksB8ApnnEMRuvHwAE4WdXBK4fAHItv53erB8ACgZA5qirHwAo/5nzYaofAKJm"
    b"b2UIqR8API1Qs5qnHwAU8tEmF6YfAADqi9R7pB8AlMDFk8aiHwAU83309KAfAAq+azMEnx8AvPl5K/GcHwDEqxVE"
    b"uJofALgveFtVmB8AeD/Qq8OVHwDy8c6p/ZIfABzkmtr8jx8A+IVznrmMHwAGlkfsKokfAI7bBPlFhR8AmgM2w/2A"
    b"HwAm6Tl4QnwfAMwqWKMAdx8AHCQaDyBxHwAqNbc0gmofAGbiqAAAYx8AxONPkGZaHwByEc5OclAfANpvXGbHRB8A"
    b"olmKo+U2HwAKNFA0FCYfABQEewQ+ER8A5stX+q72HgAeFYihjNMeALAtEh6moh4AfCaLx2FZHgCwC6wr9t0dAMDo"
    b"5NlN2xwA"
)
_FE = struct.unpack_from("<256d", _TABLES, 0)
_WE = struct.unpack_from("<256d", _TABLES, 2048)
_KE = struct.unpack_from("<256Q", _TABLES, 4096)


def seed_words(entropy: Iterable[int]) -> tuple[int, int, int, int]:
    """``SeedSequence(entropy).generate_state(4, uint64)``: four 64-bit
    words from a sequence of non-negative integers."""
    words: list[int] = []
    for value in entropy:
        n = operator.index(value)
        if n < 0:
            raise ValueError(f"expected a non-negative integer, got {n}")
        words.append(n & _M32)  # little-endian uint32 words; 0 is one word
        n >>= 32
        while n:
            words.append(n & _M32)
            n >>= 32

    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _M32
        value = (value * hash_const) & _M32
        return value ^ (value >> _XSHIFT)

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
        return result ^ (result >> _XSHIFT)

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in words[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))

    hash_const = _INIT_B
    state = []
    for i in range(8):  # eight uint32 words, paired little-endian into uint64s
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _M32
        value = (value * hash_const) & _M32
        state.append(value ^ (value >> _XSHIFT))
    w0, w1, w2, w3 = (state[i] | state[i + 1] << 32 for i in range(0, 8, 2))
    return w0, w1, w2, w3


def exponentials(words: tuple[int, int, int, int], scale: float) -> Iterator[float]:
    """The endless stream of ``scale * standard_exponential()`` draws of a
    PCG64 generator seeded with ``words`` (see ``seed_words``)."""
    # Seeding: state 0, one step, add the seed, one step.  A step advances
    # the 128-bit LCG, then outputs the xor of the state's halves rotated
    # right by the state's top 6 bits.
    inc = ((words[2] << 64 | words[3]) << 1 | 1) & _M128
    state = ((inc + (words[0] << 64 | words[1])) * _PCG_MULT + inc) & _M128
    mult, m128, m64, ke, we, fe = _PCG_MULT, _M128, _M64, _KE, _WE, _FE
    while True:
        state = (state * mult + inc) & m128
        w = (state >> 64) ^ (state & m64)
        rot = state >> 122
        ri = ((w >> rot | w << (64 - rot)) & m64) >> 3
        idx = ri & 0xFF
        ri >>= 8
        x = ri * we[idx]
        if ri < ke[idx]:
            yield scale * x  # about 98.9% of draws
            continue
        # The tail or a wedge: one uniform double in [0, 1) from the next word.
        state = (state * mult + inc) & m128
        w = (state >> 64) ^ (state & m64)
        rot = state >> 122
        u = (((w >> rot | w << (64 - rot)) & m64) >> 11) * 2.0**-53
        if idx == 0:
            yield scale * (_ZIGGURAT_EXP_R - log1p(-u))
        elif (fe[idx - 1] - fe[idx]) * u + fe[idx] < exp(-x):
            yield scale * x
        # Otherwise the draw is rejected and a fresh one begins.
